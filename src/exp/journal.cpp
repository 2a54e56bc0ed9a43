#include "rrb/exp/journal.hpp"

#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace rrb::exp {

namespace {

[[nodiscard]] bool blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

}  // namespace

Journal load_journal(const std::string& path, const std::string& fingerprint) {
  Journal journal;
  std::ifstream in(path, std::ios::binary);
  if (!in) return journal;  // no journal yet: nothing completed

  std::string line;
  std::uintmax_t consumed = 0;
  while (std::getline(in, line)) {
    // getline strips the delimiter; a final line without one is exactly the
    // truncated tail a killed writer leaves. Only complete lines advance
    // clean_size, so the writer's tail repair cuts the partial line off.
    const bool complete = !in.eof();
    consumed += static_cast<std::uintmax_t>(line.size()) + (complete ? 1 : 0);
    if (complete) journal.clean_size = consumed;

    if (blank(line)) continue;
    journal.has_content = true;
    auto parsed = parse_flat_json(line);
    if (!parsed) {
      ++journal.skipped;  // damaged or truncated: the cell just recomputes
      continue;
    }
    if (const auto fp = parsed->find_plain("fingerprint")) {
      if (*fp != fingerprint)
        throw std::runtime_error(
            path + " was written by a different campaign spec (fingerprint " +
            std::string(*fp) + ", this spec is " + fingerprint +
            ") — refusing to resume into it");
      journal.saw_header = true;
      continue;
    }
    const auto key = parsed->find_plain("key");
    if (!key) {
      ++journal.skipped;
      continue;
    }
    // A complete, parseable final line without a newline is still a good
    // record (e.g. an editor stripped the trailing newline) — keep it and
    // let the writer terminate it instead of cutting it off.
    if (!complete) journal.clean_size = consumed + 1;
    journal.records.insert_or_assign(std::string(*key), std::move(*parsed));
  }
  in.close();

  // Records without any fingerprint header cannot be attributed to a spec —
  // reusing them could silently mix incompatible results (e.g. a different
  // trial count, which the cell key does not encode).
  if (!journal.saw_header && !journal.records.empty())
    throw std::runtime_error(
        path +
        " holds cell records but no campaign header line — cannot verify "
        "they belong to this spec; restore the header or delete the "
        "manifest to recompute");
  return journal;
}

JournalWriter::JournalWriter(const std::string& path, const Journal& journal,
                             const std::string& campaign_name,
                             const std::string& fingerprint,
                             std::size_t total_cells) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::uintmax_t on_disk = fs::file_size(path, ec);
  if (!ec && on_disk > journal.clean_size) {
    // Truncated tail (killed writer): cut the partial line so the next
    // append starts on a fresh line instead of corrupting two records. The
    // kept-but-unterminated final record case sets clean_size one past the
    // file size; resize_file pads that with '\0' — worse than a newline —
    // so it is handled by the stream below instead.
    fs::resize_file(path, journal.clean_size, ec);
    if (ec)
      throw std::runtime_error("cannot repair journal tail of " + path +
                               ": " + ec.message());
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("cannot write " + path);
  if (!ec && journal.clean_size > on_disk) out_ << "\n";  // terminate kept tail
  if (!journal.saw_header) {
    JsonObject header;
    header.set("campaign", campaign_name)
        .set("fingerprint", fingerprint)
        .set("cells", static_cast<std::uint64_t>(total_cells));
    out_ << header.to_line() << "\n" << std::flush;
  }
}

void JournalWriter::append(const JsonObject& record) {
  out_ << record.to_line() << "\n" << std::flush;
}

std::size_t merge_journals(const std::vector<std::string>& sources,
                           const std::string& target,
                           const std::string& campaign_name,
                           const std::string& fingerprint,
                           std::size_t total_cells, bool require_header) {
  Journal merged = load_journal(target, fingerprint);
  std::vector<const JsonObject*> fresh;
  std::vector<Journal> loaded;
  loaded.reserve(sources.size());  // `fresh` points into these journals
  bool source_header = false;
  for (const std::string& path : sources) {
    loaded.push_back(load_journal(path, fingerprint));
    source_header = source_header || loaded.back().saw_header;
    for (const auto& [key, record] : loaded.back().records)
      if (merged.records.try_emplace(key).second) fresh.push_back(&record);
  }
  if (require_header && !source_header)
    throw std::runtime_error("no source manifest carried a campaign header");

  const std::filesystem::path parent =
      std::filesystem::path(target).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  JournalWriter writer(target, merged, campaign_name, fingerprint,
                       total_cells);
  for (const JsonObject* record : fresh) writer.append(*record);
  return fresh.size();
}

}  // namespace rrb::exp

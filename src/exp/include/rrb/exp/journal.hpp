#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "rrb/exp/artifact.hpp"

/// \file journal.hpp
/// The manifest-journal file format shared by campaign resume, shard
/// merging and the distributed executor's workers: an append-only JSONL
/// file holding one header line (naming the campaign and its spec
/// fingerprint) followed by one flushed line per completed cell.
///
/// Loading is crash-tolerant by construction. A process killed mid-write
/// leaves a truncated final line; such a line fails to parse as flat JSON
/// and is skipped, so the cell it would have recorded simply recomputes on
/// resume — bit-identically, because cell records are pure in
/// (spec, cell). The loader additionally reports the byte size of the
/// clean prefix so writers can cut the partial tail before appending;
/// without that repair an append would concatenate a fresh record onto the
/// partial line and lose both records.

namespace rrb::exp {

/// A loaded manifest journal.
struct Journal {
  /// Completed cells by cell key. Later lines win, so a journal holding a
  /// cell twice (e.g. merged from two worker journals that both computed
  /// it around a crash) stays consistent — the records are identical
  /// anyway, being pure in (spec, cell).
  std::map<std::string, JsonObject> records;

  bool saw_header = false;   ///< a fingerprint header line was present
  bool has_content = false;  ///< any non-blank line at all

  /// Byte size of the clean prefix: everything up to and including the
  /// newline of the last complete line. Smaller than the file size exactly
  /// when the file ends in a truncated partial record (killed writer);
  /// JournalWriter cuts the file back to this size before appending.
  std::uintmax_t clean_size = 0;

  std::size_t skipped = 0;  ///< damaged/truncated lines skipped
};

/// Load the journal at `path` (a missing file is an empty journal). Lines
/// that do not parse as flat JSON, or that parse without a `key` field, are
/// skipped and counted in `skipped`. Throws std::runtime_error when the
/// journal carries a header with a fingerprint other than `fingerprint`
/// (resuming across spec changes would silently mix incompatible cells) or
/// cell records with no header at all (records that cannot be attributed
/// to a spec must not be reused).
[[nodiscard]] Journal load_journal(const std::string& path,
                                   const std::string& fingerprint);

/// Merge the journals at `sources` into the journal at `target` (created,
/// with its directory, when missing): every record whose cell key the
/// target — or an earlier source — does not already hold is appended, in
/// source order and within a source in key order, so the appended lines
/// are deterministic. The one merge behind both shard merging
/// (rrb_campaign --merge) and the distributed executor's worker journals.
///
/// Every source and the target are loaded and validated (load_journal's
/// fingerprint and header checks) before the first write, so a refused
/// merge leaves the target exactly as it was. With `require_header`, a
/// merge in which no source carries a header line is refused too. Returns
/// the number of records appended.
std::size_t merge_journals(const std::vector<std::string>& sources,
                           const std::string& target,
                           const std::string& campaign_name,
                           const std::string& fingerprint,
                           std::size_t total_cells,
                           bool require_header = false);

/// Append journal lines to `path`, repairing a truncated tail first: when
/// `journal.clean_size` is short of the file's size, the partial final
/// line is cut off (the loader already skipped it, so no information is
/// lost). Writes the `{campaign, fingerprint, cells}` header when the
/// journal has none. Throws std::runtime_error when the file cannot be
/// opened for writing.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, const Journal& journal,
                const std::string& campaign_name,
                const std::string& fingerprint, std::size_t total_cells);

  /// Append one record line and flush it, so the cell survives however the
  /// process dies afterwards.
  void append(const JsonObject& record);

  void close() { out_.close(); }

 private:
  std::ofstream out_;
};

}  // namespace rrb::exp

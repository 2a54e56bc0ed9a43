#include "rrb/exp/artifact.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "rrb/common/check.hpp"

namespace rrb::exp {

namespace {

const char* const kHexDigits = "0123456789abcdef";

double steady_now_ms() {
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — feeds only the
  // timing.jsonl wall-clock side channel, which is never part of the
  // deterministic artifacts and never diffed (see PR 5 notes in CHANGES.md).
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(since_epoch).count();
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHexDigits[byte >> 4];
          out += kHexDigits[byte & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "null";
  // printf's %.17g in the C locale, whatever the host's LC_NUMERIC: the
  // same bytes a classic-locale ostream at precision 17 writes.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  RRB_ASSERT(ec == std::errc{}, "format_double: buffer too small");
  return std::string(buf, end);
}

std::optional<std::string_view> JsonObject::find_plain(
    std::string_view key) const {
  for (const Field& field : fields_)
    if (field.key == key) return std::string_view(field.plain);
  return std::nullopt;
}

std::optional<double> JsonObject::find_number(std::string_view key) const {
  for (const Field& field : fields_) {
    if (field.key != key) continue;
    // std::from_chars, not strtod: value parsing must match the classic-
    // locale discipline format_double applies when writing, even inside a
    // host process that set a comma-decimal LC_NUMERIC.
    const std::string& text = field.plain;
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
      return std::nullopt;
    return value;
  }
  return std::nullopt;
}

void JsonObject::write(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n" << pad << "  \"" << json_escape(fields_[i].key)
       << "\": " << fields_[i].json;
  }
  os << "\n" << pad << "}";
}

void JsonObject::write_line(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << json_escape(fields_[i].key) << "\": " << fields_[i].json;
  }
  os << "}";
}

std::string JsonObject::to_line() const {
  std::ostringstream os;
  write_line(os);
  return os.str();
}

namespace {

/// Minimal scanner for the flat objects this library writes. Values are
/// strings, numbers, booleans or null — no nested containers.
class FlatScanner {
 public:
  explicit FlatScanner(std::string_view text) : text_(text) {}

  std::optional<JsonObject> parse() {
    skip_ws();
    if (!eat('{')) return std::nullopt;
    JsonObject object;
    skip_ws();
    if (eat('}')) return finish(object);
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      skip_ws();
      JsonObject::Field field;
      field.key = std::move(key);
      if (!parse_value(field)) return std::nullopt;
      object.set_raw(std::move(field));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return finish(object);
      return std::nullopt;
    }
  }

 private:
  std::optional<JsonObject> finish(JsonObject& object) {
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return std::move(object);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  /// Parse a JSON string literal at pos_, appending the *unescaped* text to
  /// `out`. \uXXXX escapes are only produced by this library for control
  /// bytes below 0x20, so code points above 0xff are rejected rather than
  /// UTF-8 encoded.
  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_value(text_[pos_ + static_cast<std::size_t>(i)]);
            if (digit < 0) return false;
            code = code * 16 + digit;
          }
          pos_ += 4;
          if (code > 0xff) return false;
          out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_value(JsonObject::Field& field) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '"') {
      std::string plain;
      if (!parse_string(plain)) return false;
      field.json = std::string(text_.substr(start, pos_ - start));
      field.plain = std::move(plain);
      return true;
    }
    // Bare token: number / true / false / null. Consume up to a
    // delimiter and validate the spelling loosely (numbers keep their
    // original token verbatim, which is what resume's byte-identity needs).
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ' ' && text_[pos_] != '\t' && text_[pos_] != '\n' &&
           text_[pos_] != '\r')
      ++pos_;
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty()) return false;
    if (token != "true" && token != "false" && token != "null") {
      double parsed = 0.0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), parsed);
      if (ec != std::errc{} || ptr != token.data() + token.size())
        return false;
    }
    field.json = token;
    field.plain = token;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonObject> parse_flat_json(std::string_view text) {
  return FlatScanner(text).parse();
}

std::string csv_escape(std::string_view text) {
  if (text.find_first_of(",\"\n\r") == std::string_view::npos)
    return std::string(text);
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void CsvWriter::write_header(std::ostream& os) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) os << ",";
    os << csv_escape(columns_[i]);
  }
  os << "\n";
}

void CsvWriter::write_row(std::ostream& os, const JsonObject& record) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) os << ",";
    if (const auto plain = record.find_plain(columns_[i]))
      os << csv_escape(*plain);
  }
  os << "\n";
}

void write_report(std::ostream& os, const JsonObject& meta,
                  const JsonObject& top, const std::vector<JsonObject>& rows) {
  os << "{\n  \"meta\": ";
  meta.write(os, 2);
  os << ",\n  \"top\": ";
  top.write(os, 2);
  os << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n    ";
    rows[i].write(os, 4);
  }
  os << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
}

BenchReport::BenchReport(std::string name, std::string git_revision,
                         int threads)
    : name_(std::move(name)),
      git_(std::move(git_revision)),
      threads_(threads),
      start_ms_(steady_now_ms()) {}

std::string BenchReport::write_to(const std::string& path) {
  const double wall_ms = steady_now_ms() - start_ms_;

  JsonObject meta;
  meta.set("bench", name_)
      .set("git", git_)
      .set("threads", threads_)
      .set("wall_ms", wall_ms);

  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return path;
  }
  write_report(os, meta, top_, rows_);
  std::cout << "bench json: " << path << "\n";
  return path;
}

std::string BenchReport::write() {
  std::string dir = ".";
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — chooses where the
  // bench report lands on disk, not what it contains.
  if (const char* env = std::getenv("RRB_BENCH_JSON_DIR");
      env != nullptr && *env != '\0')
    dir = env;
  return write_to(dir + "/BENCH_" + name_ + ".json");
}

}  // namespace rrb::exp

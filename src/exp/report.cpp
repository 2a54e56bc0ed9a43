#include "rrb/exp/report.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "rrb/common/math.hpp"

namespace rrb::exp {

namespace {

[[nodiscard]] bool blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

[[nodiscard]] bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

[[nodiscard]] bool ident_char(char c) {
  return ident_start(c) || (c >= '0' && c <= '9');
}

[[nodiscard]] std::string_view trim(std::string_view text) {
  while (!text.empty() && blank(text.front())) text.remove_prefix(1);
  while (!text.empty() && blank(text.back())) text.remove_suffix(1);
  return text;
}

/// C_d for an integral d >= 3, NaN otherwise (push_constant_cd's domain).
[[nodiscard]] double cd_or_nan(double d) {
  if (!(d >= 3.0) || d > 1e9 || d != std::floor(d)) return std::nan("");
  return push_constant_cd(static_cast<int>(d));
}

}  // namespace

/// Recursive descent over one comma-free expression, emitting postfix:
///
///   expr    := term (('+' | '-') term)*
///   term    := unary (('*' | '/') unary)*
///   unary   := '-' unary | primary
///   primary := number | field | func '(' expr ')' | '(' expr ')'
class ReportParser {
 public:
  ReportParser(std::string_view source, ReportExpr& out)
      : source_(source), out_(out) {}

  /// Parse an expression starting at `pos`; stops (without consuming) at a
  /// top-level ',' or the end. Returns the position it stopped at.
  std::size_t parse_at(std::size_t pos) {
    pos_ = pos;
    expr();
    skip_blanks();
    if (pos_ < source_.size() && source_[pos_] != ',')
      fail("unexpected '" + std::string(1, source_[pos_]) + "'");
    return pos_;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("report: " + what + " at column " +
                             std::to_string(pos_ + 1) + " of '" +
                             std::string(source_) + "'");
  }

  void skip_blanks() {
    while (pos_ < source_.size() && blank(source_[pos_])) ++pos_;
  }

  /// Consume `c` if it is the next non-blank character.
  bool accept(char c) {
    skip_blanks();
    if (pos_ < source_.size() && source_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void emit(ReportExpr::Op op) { out_.program_.push_back({op}); }

  void expr() {
    term();
    while (true) {
      if (accept('+')) {
        term();
        emit(ReportExpr::Op::kAdd);
      } else if (accept('-')) {
        term();
        emit(ReportExpr::Op::kSub);
      } else {
        return;
      }
    }
  }

  void term() {
    unary();
    while (true) {
      if (accept('*')) {
        unary();
        emit(ReportExpr::Op::kMul);
      } else if (accept('/')) {
        unary();
        emit(ReportExpr::Op::kDiv);
      } else {
        return;
      }
    }
  }

  void unary() {
    int negations = 0;
    while (accept('-')) ++negations;
    primary();
    for (; negations > 0; --negations) emit(ReportExpr::Op::kNeg);
  }

  /// Parentheses and calls recurse; a spec line must not exhaust the stack.
  void nested_expr() {
    if (++depth_ > kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    expr();
    if (!accept(')')) fail("expected ')'");
    --depth_;
  }

  void primary() {
    skip_blanks();
    if (pos_ >= source_.size()) fail("expected a value");
    const char c = source_[pos_];
    if (accept('(')) {
      nested_expr();
      return;
    }
    if ((c >= '0' && c <= '9') || c == '.') {
      number();
      return;
    }
    if (!ident_start(c)) fail("unexpected '" + std::string(1, c) + "'");
    const std::size_t begin = pos_;
    while (pos_ < source_.size() && ident_char(source_[pos_])) ++pos_;
    const std::string name(source_.substr(begin, pos_ - begin));
    if (accept('(')) {
      ReportExpr::Op op;
      if (name == "log2") op = ReportExpr::Op::kLog2;
      else if (name == "ln") op = ReportExpr::Op::kLn;
      else if (name == "cd") op = ReportExpr::Op::kCd;
      else {
        pos_ = begin;
        fail("unknown function '" + name + "' (known: log2, ln, cd)");
      }
      nested_expr();
      emit(op);
      return;
    }
    std::size_t index = 0;
    while (index < out_.fields_.size() && out_.fields_[index] != name) ++index;
    if (index == out_.fields_.size()) out_.fields_.push_back(name);
    out_.program_.push_back({ReportExpr::Op::kField, 0.0, index});
  }

  void number() {
    double value = 0.0;
    const char* begin = source_.data() + pos_;
    const char* end = source_.data() + source_.size();
    const auto [ptr, ec] =
        std::from_chars(begin, end, value, std::chars_format::general);
    if (ec != std::errc{} || (ptr != end && ident_char(*ptr)))
      fail("malformed number");
    pos_ += static_cast<std::size_t>(ptr - begin);
    out_.program_.push_back({ReportExpr::Op::kNumber, value});
  }

  static constexpr int kMaxDepth = 64;

  std::string_view source_;
  ReportExpr& out_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

std::optional<double> ReportExpr::evaluate(const JsonObject& record) const {
  std::vector<double> values;
  values.reserve(fields_.size());
  for (const std::string& field : fields_) {
    const std::optional<double> value = record.find_number(field);
    if (!value) return std::nullopt;
    values.push_back(*value);
  }
  std::vector<double> stack;
  stack.reserve(program_.size());
  for (const Step& step : program_) {
    if (step.op == Op::kNumber) {
      stack.push_back(step.number);
      continue;
    }
    if (step.op == Op::kField) {
      stack.push_back(values[step.field]);
      continue;
    }
    double& top = stack[stack.size() - 1];
    switch (step.op) {
      case Op::kNeg: top = -top; continue;
      case Op::kLog2: top = std::log2(top); continue;
      case Op::kLn: top = std::log(top); continue;
      case Op::kCd: top = cd_or_nan(top); continue;
      default: break;
    }
    const double rhs = top;
    stack.pop_back();
    double& lhs = stack.back();
    switch (step.op) {
      case Op::kAdd: lhs += rhs; break;
      case Op::kSub: lhs -= rhs; break;
      case Op::kMul: lhs *= rhs; break;
      case Op::kDiv: lhs /= rhs; break;
      default: break;
    }
  }
  return stack.back();
}

std::vector<ReportExpr> parse_report(std::string_view text) {
  text = trim(text);
  std::vector<ReportExpr> columns;
  std::size_t begin = 0;
  while (true) {
    ReportExpr expr;
    ReportParser parser(text, expr);
    const std::size_t end = parser.parse_at(begin);
    expr.text_ = std::string(trim(text.substr(begin, end - begin)));
    for (const ReportExpr& prior : columns)
      if (prior.text() == expr.text())
        throw std::runtime_error("report: duplicate column '" + expr.text() +
                                 "'");
    columns.push_back(std::move(expr));
    if (end == text.size()) return columns;
    begin = end + 1;  // past the ','
  }
}

const std::vector<ReportExpr>& default_report() {
  static const std::vector<ReportExpr> kDefault = parse_report(
      "rounds_mean, completion_rate, tx_per_node_mean, coverage_mean");
  return kDefault;
}

std::vector<std::vector<std::optional<double>>> evaluate_report(
    const std::vector<ReportExpr>& columns,
    const std::vector<const JsonObject*>& records) {
  std::vector<std::vector<std::optional<double>>> rows;
  rows.reserve(records.size());
  for (const JsonObject* record : records) {
    std::vector<std::optional<double>>& row = rows.emplace_back();
    for (const ReportExpr& column : columns)
      row.push_back(column.evaluate(*record));
  }
  if (records.empty()) return rows;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    bool any = false;
    for (const auto& row : rows) any = any || row[c].has_value();
    if (any) continue;
    const std::string prefix = "report column '" + columns[c].text() + "': ";
    for (const std::string& field : columns[c].fields()) {
      bool carried = false;
      for (const JsonObject* record : records)
        carried = carried || record->find_number(field).has_value();
      if (!carried)
        throw std::runtime_error(prefix + "no cell record carries a numeric '" +
                                 field + "' field");
    }
    throw std::runtime_error(prefix +
                             "no cell record carries all of its fields");
  }
  return rows;
}

std::string format_report_value(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::general, 8);
  if (ec != std::errc{}) return "?";
  return std::string(buffer, ptr);
}

}  // namespace rrb::exp

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rrb/exp/artifact.hpp"

/// \file report.hpp
/// The `report =` line of a campaign spec: which columns rrb_campaign
/// renders from the cell records, as arithmetic over record fields.
///
///   report = completion_mean / ln(n) / cd(d), (1 - coverage_mean) * n
///
/// An expression combines record fields (`n`, `d`, `completion_mean`,
/// registry-metric columns, ...), number literals, `+ - * /`, unary minus,
/// parentheses and three functions: `log2(x)`, `ln(x)` and `cd(x)` — the
/// Fountoulakis–Panagiotou push constant C_d (rrb::push_constant_cd; NaN
/// unless x is an integer >= 3). Syntax errors and unknown functions fail
/// when the spec loads. Field names are checked against the records once
/// the campaign has run: which columns exist depends on the execution path
/// (static vs churn cells) and on the metrics, not on the spec text alone.
///
/// A report is presentation, never identity: it stays out of cell keys,
/// cell seeds, describe() and spec_fingerprint(), so adding or editing a
/// report line reuses every journal line and leaves every deterministic
/// artifact byte-identical.

namespace rrb::exp {

/// One parsed report column.
class ReportExpr {
 public:
  /// The column's source text, blanks trimmed — also its table header and
  /// its key in BENCH_*.json rows.
  [[nodiscard]] const std::string& text() const { return text_; }

  /// Record fields the expression reads, in first-use order.
  [[nodiscard]] const std::vector<std::string>& fields() const {
    return fields_;
  }

  /// The column's value for one record; nullopt when the record lacks a
  /// numeric value for one of fields().
  [[nodiscard]] std::optional<double> evaluate(const JsonObject& record) const;

 private:
  friend class ReportParser;
  friend std::vector<ReportExpr> parse_report(std::string_view text);

  enum class Op { kNumber, kField, kNeg, kAdd, kSub, kMul, kDiv, kLog2, kLn,
                  kCd };
  struct Step {
    Op op;
    double number = 0.0;     ///< kNumber: the literal
    std::size_t field = 0;   ///< kField: index into fields_
  };

  std::string text_;
  std::vector<std::string> fields_;
  std::vector<Step> program_;  ///< postfix: operands before their operator
};

/// Parse a `report =` value: comma-separated expressions, at least one,
/// no two with the same text. Throws std::runtime_error naming the problem
/// and its position on a syntax error or an unknown function.
[[nodiscard]] std::vector<ReportExpr> parse_report(std::string_view text);

/// The report rrb_campaign renders for a spec without a `report =` line.
[[nodiscard]] const std::vector<ReportExpr>& default_report();

/// Evaluate `columns` over `records`: one row per record, one value per
/// column, nullopt where a record lacks a column's field (churn cells have
/// no push/pull split, static cells no joins). Throws std::runtime_error
/// naming the column and field when a column reads a field that no record
/// carries — a typo must fail, not print a column of dashes. An empty
/// record list yields no rows and checks nothing.
[[nodiscard]] std::vector<std::vector<std::optional<double>>> evaluate_report(
    const std::vector<ReportExpr>& columns,
    const std::vector<const JsonObject*>& records);

/// The one number format of report tables: 8 significant digits, shortest
/// form, locale-independent ("23.4", "0.99998779", "655360").
[[nodiscard]] std::string format_report_value(double value);

}  // namespace rrb::exp

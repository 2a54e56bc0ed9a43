#include "rrb/exp/artifact.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <vector>

#include "rrb/rng/rng.hpp"

namespace rrb::exp {
namespace {

// ---- JSON escaping ---------------------------------------------------------

TEST(Artifact, JsonEscapePassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("UTF-8 § passthrough"), "UTF-8 § passthrough");
}

TEST(Artifact, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Artifact, FormatDoubleIsRoundTripExactAndCompact) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-2.0), "-2");
  // 17 significant digits round-trip any double exactly.
  const double value = 0.1;
  EXPECT_EQ(std::strtod(format_double(value).c_str(), nullptr), value);
  // Non-finite values have no JSON literal.
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

/// format_double as it was written with a classic-locale ostream at
/// precision 17: the reference its to_chars form must match byte for byte.
std::string classic_stream_format(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(17);
  os << value;
  return os.str();
}

TEST(FormatDouble, MatchesClassicLocaleStream) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1e16,
                                1e17,
                                123456789012345678.0,
                                limits::max(),
                                limits::lowest(),
                                limits::min(),
                                limits::denorm_min(),
                                -limits::denorm_min(),
                                limits::epsilon(),
                                limits::infinity(),
                                -limits::infinity(),
                                limits::quiet_NaN()};
  for (int i = -4096; i <= 4096; ++i) {
    values.push_back(i);                  // integers
    values.push_back(i / 8.0);            // exact binary fractions
    values.push_back(i * 1e300);          // near the top of the range
    values.push_back(i * 1e-300);         // near the bottom
    values.push_back(i * limits::denorm_min());  // subnormals
  }
  Rng rng(0xf0a7);
  for (int i = 0; i < 1'000'000; ++i) {
    // Random bit patterns cover every exponent, NaN payloads included.
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  std::size_t mismatches = 0;
  for (const double value : values) {
    if (format_double(value) == classic_stream_format(value)) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(value)
                    << ": " << format_double(value)
                    << " != " << classic_stream_format(value);
  }
  EXPECT_EQ(mismatches, 0U);
}

// ---- JsonObject ------------------------------------------------------------

TEST(Artifact, JsonObjectWriteLineIsCanonical) {
  JsonObject object;
  object.set("name", "a\"b")
      .set("count", std::uint64_t{7})
      .set("ratio", 1.5)
      .set("ok", true);
  EXPECT_EQ(object.to_line(),
            "{\"name\": \"a\\\"b\", \"count\": 7, \"ratio\": 1.5, "
            "\"ok\": true}");
}

TEST(Artifact, JsonObjectPrettyWriteMatchesBenchLayout) {
  JsonObject object;
  object.set("a", 1).set("b", "x");
  std::ostringstream os;
  object.write(os, 2);
  EXPECT_EQ(os.str(), "{\n    \"a\": 1,\n    \"b\": \"x\"\n  }");
}

TEST(Artifact, JsonObjectLookups) {
  JsonObject object;
  object.set("name", "push").set("rounds", 12.5);
  EXPECT_EQ(object.find_plain("name"), "push");
  EXPECT_EQ(object.find_number("rounds"), 12.5);
  EXPECT_FALSE(object.find_plain("missing").has_value());
  EXPECT_FALSE(object.find_number("name").has_value());
}

// ---- Flat JSON parsing (campaign resume) -----------------------------------

TEST(Artifact, ParseFlatJsonRoundTripsByteIdentically) {
  JsonObject object;
  object.set("key", "scheme=push;n=256")
      .set("alpha", 1.5)
      .set("weird", "a\"b\\c\nd")
      .set("count", std::uint64_t{42})
      .set("ok", false);
  const std::string line = object.to_line();
  const auto parsed = parse_flat_json(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_line(), line);
  EXPECT_EQ(parsed->find_plain("key"), "scheme=push;n=256");
  EXPECT_EQ(parsed->find_plain("weird"), "a\"b\\c\nd");
  EXPECT_EQ(parsed->find_number("alpha"), 1.5);
}

TEST(Artifact, ParseFlatJsonPreservesNumberTokensVerbatim) {
  const auto parsed =
      parse_flat_json("{\"x\": 39.969999999999999, \"y\": 1e-3}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_line(), "{\"x\": 39.969999999999999, \"y\": 1e-3}");
}

TEST(Artifact, ParseFlatJsonRejectsMalformedInput) {
  EXPECT_FALSE(parse_flat_json("").has_value());
  EXPECT_FALSE(parse_flat_json("{").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\" 1}").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\": bogus}").has_value());
  // Nested containers are not flat.
  EXPECT_FALSE(parse_flat_json("{\"a\": {\"b\": 1}}").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\": [1, 2]}").has_value());
}

TEST(Artifact, ParseFlatJsonAcceptsEmptyObject) {
  const auto parsed = parse_flat_json("{}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

// ---- CSV -------------------------------------------------------------------

TEST(Artifact, CsvEscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(Artifact, CsvWriterEmitsHeaderAndAlignedRows) {
  CsvWriter csv({"key", "rounds", "coverage"});
  JsonObject static_cell;
  static_cell.set("key", "a,b").set("rounds", 12.5);
  JsonObject churn_cell;
  churn_cell.set("key", "c").set("coverage", 0.5).set("extra", 1);

  std::ostringstream os;
  csv.write_header(os);
  csv.write_row(os, static_cell);
  csv.write_row(os, churn_cell);
  EXPECT_EQ(os.str(),
            "key,rounds,coverage\n"
            "\"a,b\",12.5,\n"
            "c,,0.5\n");
}

// ---- Reports ---------------------------------------------------------------

TEST(Artifact, WriteReportLayout) {
  JsonObject meta;
  meta.set("bench", "t");
  JsonObject top;
  top.set("slope", 2.0);
  std::vector<JsonObject> rows(1);
  rows[0].set("n", 4);

  std::ostringstream os;
  write_report(os, meta, top, rows);
  EXPECT_EQ(os.str(),
            "{\n  \"meta\": {\n    \"bench\": \"t\"\n  },"
            "\n  \"top\": {\n    \"slope\": 2\n  },"
            "\n  \"rows\": [\n    {\n      \"n\": 4\n    }\n  ]\n}\n");
}

TEST(Artifact, BenchReportWritesToExplicitPath) {
  const std::string path = testing::TempDir() + "artifact_report.json";
  BenchReport report("unit", "rev123", 3);
  report.set("top_level", 1);
  report.row().set("case", "x");
  EXPECT_EQ(report.write_to(path), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(content.str().find("\"git\": \"rev123\""), std::string::npos);
  EXPECT_NE(content.str().find("\"threads\": 3"), std::string::npos);
  EXPECT_NE(content.str().find("\"case\": \"x\""), std::string::npos);
}

}  // namespace
}  // namespace rrb::exp

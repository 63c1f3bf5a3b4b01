// Unit tests for the util module: SimTime arithmetic, RNG determinism and
// distribution sanity, statistics helpers, table/CSV/CLI formatting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/expect.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace pgasemb {
namespace {

// --- SimTime ---------------------------------------------------------------

TEST(SimTimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(SimTime::ns(1.0).count(), 1000);
  EXPECT_EQ(SimTime::us(1.0).count(), 1'000'000);
  EXPECT_EQ(SimTime::ms(1.0).count(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::us(12.5).toUs(), 12.5);
  EXPECT_DOUBLE_EQ(SimTime::sec(2.0).toSec(), 2.0);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::us(10);
  const SimTime b = SimTime::us(4);
  EXPECT_EQ((a + b).toUs(), 14.0);
  EXPECT_EQ((a - b).toUs(), 6.0);
  EXPECT_EQ((a * 3).toUs(), 30.0);
  EXPECT_EQ((a / 2).toUs(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ(a * 0.5, SimTime::us(5));
}

TEST(SimTimeTest, Comparisons) {
  EXPECT_LT(SimTime::ns(999), SimTime::us(1));
  EXPECT_EQ(SimTime::us(1), SimTime::ns(1000));
  EXPECT_GT(SimTime::ms(1), SimTime::us(999));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_NE(SimTime::ns(5).toString().find("ns"), std::string::npos);
  EXPECT_NE(SimTime::us(5).toString().find("us"), std::string::npos);
  EXPECT_NE(SimTime::ms(5).toString().find("ms"), std::string::npos);
  EXPECT_NE(SimTime::sec(5).toString().find("s"), std::string::npos);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBounded(17), 17u);
  }
}

TEST(RngTest, UniformIntIsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleMeanIsCentered) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniformDouble());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_GE(s.min(), 0.0);
  EXPECT_LT(s.max(), 1.0);
}

TEST(RngTest, NormalMeanAndVariance) {
  Rng rng(13);
  RunningStat s;
  for (int i = 0; i < 40000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RngTest, SplitMixIsStateless) {
  EXPECT_EQ(splitmix64(123), splitmix64(123));
  EXPECT_NE(splitmix64(123), splitmix64(124));
}

// --- Stats ---------------------------------------------------------------------

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, GeomeanMatchesPaperStyleSpeedups) {
  // The paper reports geo-mean 1.97x from {2.10, 1.95, 1.87}.
  EXPECT_NEAR(geomean({2.10, 1.95, 1.87}), 1.97, 0.005);
  // And 2.63x from {2.95, 2.55, 2.44}.
  EXPECT_NEAR(geomean({2.95, 2.55, 2.44}), 2.64, 0.01);
}

TEST(StatsTest, GeomeanRejectsNonPositive) {
  EXPECT_THROW(geomean({1.0, 0.0}), InvalidArgumentError);
  EXPECT_THROW(geomean({-1.0}), InvalidArgumentError);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(median({1, 3, 2, 4}), 2.5);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

// --- ConsoleTable -----------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  ConsoleTable t({"Speedup", "2 GPUs", "3 GPUs", "4 GPUs"});
  t.addRow({"PGAS over baseline", "2.10x", "1.95x", "1.87x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Speedup"), std::string::npos);
  EXPECT_NE(out.find("2.10x"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TableTest, RejectsWrongArity) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only one"}), InvalidArgumentError);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(ConsoleTable::num(1.977, 2), "1.98");
  EXPECT_EQ(ConsoleTable::num(2.0, 0), "2");
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, WritesAndEscapes) {
  const std::string path = "/tmp/pgasemb_csv_test.csv";
  {
    CsvWriter w(path, {"name", "value"});
    w.addRow({"plain", "1"});
    w.addRow({"with,comma", "2"});
    w.addRow({"with\"quote", "3"});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("name,value"), std::string::npos);
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"with\"\"quote\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CsvTest, RejectsWrongArity) {
  const std::string path = "/tmp/pgasemb_csv_test2.csv";
  CsvWriter w(path, {"a"});
  EXPECT_THROW(w.addRow({"1", "2"}), InvalidArgumentError);
  w.close();
  std::filesystem::remove(path);
}

// --- CLI ---------------------------------------------------------------------

TEST(CliTest, DefaultsAndOverrides) {
  CliParser cli("test");
  cli.addInt("gpus", 4, "gpu count");
  cli.addDouble("scale", 1.5, "scale");
  cli.addString("mode", "weak", "mode");
  cli.addBool("verbose", false, "verbosity");

  const char* argv[] = {"prog", "--gpus", "2", "--mode=strong", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.getInt("gpus"), 2);
  EXPECT_DOUBLE_EQ(cli.getDouble("scale"), 1.5);
  EXPECT_EQ(cli.getString("mode"), "strong");
  EXPECT_TRUE(cli.getBool("verbose"));
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgumentError);
}

TEST(CliTest, BadIntValueThrowsAtParseTime) {
  // Malformed values are rejected when the flag is parsed, not when the
  // bench later reads it — the run never starts on garbage input.
  CliParser cli("test");
  cli.addInt("n", 1, "n");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgumentError);
}

TEST(CliTest, TrailingJunkIntRejected) {
  // std::stoll would silently accept "12abc" as 12; the strict parser
  // must consume the whole string.
  CliParser cli("test");
  cli.addInt("n", 1, "n");
  const char* argv[] = {"prog", "--n", "12abc"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgumentError);
}

TEST(CliTest, BadDoubleAndBoolValuesThrowAtParseTime) {
  CliParser cli("test");
  cli.addDouble("scale", 1.0, "scale");
  cli.addBool("flag", false, "flag");
  const char* bad_double[] = {"prog", "--scale", "1.5x"};
  EXPECT_THROW(cli.parse(3, bad_double), InvalidArgumentError);
  const char* bad_bool[] = {"prog", "--flag=maybe"};
  EXPECT_THROW(cli.parse(2, bad_bool), InvalidArgumentError);
}

TEST(CliTest, ParseOrExitFailsCleanlyOnUnknownFlag) {
  CliParser cli("test");
  cli.addInt("n", 1, "n");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_EXIT(cli.parseOrExit(3, argv), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(CliTest, ParseOrExitFailsCleanlyOnMalformedValue) {
  CliParser cli("test");
  cli.addInt("n", 1, "n");
  const char* argv[] = {"prog", "--n", "four"};
  EXPECT_EXIT(cli.parseOrExit(3, argv), ::testing::ExitedWithCode(2),
              "--help for usage");
}

TEST(ParseStrictTest, IntAcceptsFullStringsOnly) {
  EXPECT_EQ(parseIntStrict("42", "t"), 42);
  EXPECT_EQ(parseIntStrict("-7", "t"), -7);
  EXPECT_THROW(parseIntStrict("", "t"), InvalidArgumentError);
  EXPECT_THROW(parseIntStrict("12abc", "t"), InvalidArgumentError);
  EXPECT_THROW(parseIntStrict("1.5", "t"), InvalidArgumentError);
  EXPECT_THROW(parseIntStrict("abc", "t"), InvalidArgumentError);
}

TEST(ParseStrictTest, DoubleAcceptsFullStringsOnly) {
  EXPECT_DOUBLE_EQ(parseDoubleStrict("0.5", "t"), 0.5);
  EXPECT_DOUBLE_EQ(parseDoubleStrict("-2", "t"), -2.0);
  EXPECT_THROW(parseDoubleStrict("", "t"), InvalidArgumentError);
  EXPECT_THROW(parseDoubleStrict("1.5x", "t"), InvalidArgumentError);
  EXPECT_THROW(parseDoubleStrict("nanananana", "t"), InvalidArgumentError);
}

TEST(ParseStrictTest, BoolAcceptsKnownSpellings) {
  EXPECT_TRUE(parseBoolStrict("true", "t"));
  EXPECT_TRUE(parseBoolStrict("1", "t"));
  EXPECT_TRUE(parseBoolStrict("yes", "t"));
  EXPECT_FALSE(parseBoolStrict("false", "t"));
  EXPECT_FALSE(parseBoolStrict("0", "t"));
  EXPECT_FALSE(parseBoolStrict("no", "t"));
  EXPECT_THROW(parseBoolStrict("maybe", "t"), InvalidArgumentError);
}

TEST(ParseStrictTest, ErrorMessagesNameTheFlag) {
  try {
    parseIntStrict("abc", "flag --gpus");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--gpus"), std::string::npos);
  }
}

TEST(CliTest, UsageListsFlags) {
  CliParser cli("my tool");
  cli.addInt("batch", 16384, "batch size");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("my tool"), std::string::npos);
  EXPECT_NE(u.find("--batch"), std::string::npos);
  EXPECT_NE(u.find("16384"), std::string::npos);
}

// --- Charts --------------------------------------------------------------------

TEST(ChartTest, LineChartRendersSeriesAndLegend) {
  AsciiLineChart chart("Weak scaling", 40, 10);
  chart.addSeries({"baseline", {1, 2, 3, 4}, {1.0, 0.46, 0.48, 0.47}, 'b'});
  chart.addSeries({"pgas", {1, 2, 3, 4}, {1.0, 0.95, 0.93, 0.9}, 'p'});
  chart.setAxisLabels("GPUs", "scaling factor");
  const std::string out = chart.render();
  EXPECT_NE(out.find("Weak scaling"), std::string::npos);
  EXPECT_NE(out.find("b = baseline"), std::string::npos);
  EXPECT_NE(out.find("p = pgas"), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
}

TEST(ChartTest, StackedBarsRenderSegments) {
  AsciiStackedBars bars("Breakdown", {"compute", "comm", "sync+unpack"});
  bars.addBar("baseline 2gpu", {5.0, 3.0, 2.0});
  bars.addBar("pgas 2gpu", {5.5, 0.0, 0.0});
  const std::string out = bars.render();
  EXPECT_NE(out.find("Breakdown"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("compute"), std::string::npos);
}

TEST(ChartTest, RejectsMismatchedSeries) {
  AsciiLineChart chart("t");
  EXPECT_THROW(chart.addSeries({"x", {1, 2}, {1}, '*'}),
               InvalidArgumentError);
  AsciiStackedBars bars("t", {"a", "b"});
  EXPECT_THROW(bars.addBar("r", {1.0}), InvalidArgumentError);
}

// --- expect macros ----------------------------------------------------------

TEST(ExpectTest, CheckThrowsWithMessage) {
  try {
    PGASEMB_CHECK(1 == 2, "one is not ", 2);
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
  }
}

TEST(ExpectTest, AssertThrowsError) {
  EXPECT_THROW(PGASEMB_ASSERT(false), Error);
}

TEST(ExpectTest, ExpectFailureMessageShowsEvaluatedOperands) {
  try {
    const int used = 130;
    const int limit = 128;
    PGASEMB_EXPECT_LE(used, limit, "capacity check");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expect failed: used <= limit"), std::string::npos)
        << what;
    EXPECT_NE(what.find("with used = 130, limit = 128"), std::string::npos)
        << what;
    EXPECT_NE(what.find("capacity check"), std::string::npos) << what;
  }
}

TEST(ExpectTest, ComparisonMacrosCoverAllOperators) {
  PGASEMB_EXPECT_EQ(2 + 2, 4);
  PGASEMB_EXPECT_NE(1, 2);
  PGASEMB_EXPECT_LT(1, 2);
  PGASEMB_EXPECT_LE(2, 2);
  PGASEMB_EXPECT_GT(3, 2);
  PGASEMB_EXPECT_GE(2, 2);
  EXPECT_THROW(PGASEMB_EXPECT_EQ(1, 2), InvalidArgumentError);
  EXPECT_THROW(PGASEMB_EXPECT_NE(2, 2), InvalidArgumentError);
  EXPECT_THROW(PGASEMB_EXPECT_LT(2, 2), InvalidArgumentError);
  EXPECT_THROW(PGASEMB_EXPECT_LE(3, 2), InvalidArgumentError);
  EXPECT_THROW(PGASEMB_EXPECT_GT(2, 2), InvalidArgumentError);
  EXPECT_THROW(PGASEMB_EXPECT_GE(1, 2), InvalidArgumentError);
}

TEST(ExpectTest, ExpectOperandsAreEvaluatedExactlyOnce) {
  int calls = 0;
  const auto next = [&calls] { return ++calls; };
  PGASEMB_EXPECT_GE(next(), 1);
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(PGASEMB_EXPECT_GE(0, next()), InvalidArgumentError);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace pgasemb

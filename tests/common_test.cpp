// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"

namespace cia {
namespace {

// ------------------------------------------------------------------- hex

TEST(HexTest, RoundTrip) {
  const Bytes data{0x00, 0x01, 0xab, 0xff};
  auto decoded = from_hex(to_hex(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

TEST(HexTest, Empty) {
  EXPECT_EQ(to_hex({}), "");
  auto decoded = from_hex("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_FALSE(from_hex("abc").ok());
}

TEST(HexTest, RejectsNonHex) {
  EXPECT_FALSE(from_hex("zz").ok());
}

TEST(HexTest, UppercaseAccepted) {
  auto decoded = from_hex("ABCD");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(to_hex(decoded.value()), "abcd");
}

// ---------------------------------------------------------------- result

TEST(ResultTest, ValueAndError) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);

  Result<int> err_result(err(Errc::kNotFound, "missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.error().code, Errc::kNotFound);
  EXPECT_EQ(err_result.value_or(-1), -1);
}

TEST(ResultTest, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status failed = err(Errc::kInternal, "boom");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().to_string(), "internal: boom");
}

// ------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 10.0, 0.1);
  EXPECT_NEAR(s.stddev, 2.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ForkIsIndependentAndStable) {
  Rng a(5);
  Rng fork1 = a.fork("label");
  Rng b(5);
  Rng fork2 = b.fork("label");
  EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
}

// ----------------------------------------------------------------- clock

TEST(SimClockTest, AdvanceAndDay) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(kDay + kHour);
  EXPECT_EQ(clock.day(), 1);
  EXPECT_EQ(clock.time_of_day(), kHour);
}

TEST(SimClockTest, AdvanceToNeverGoesBack) {
  SimClock clock(100);
  clock.advance_to(50);
  EXPECT_EQ(clock.now(), 100);
  clock.advance_to(150);
  EXPECT_EQ(clock.now(), 150);
}

TEST(SimClockTest, Formatting) {
  SimClock clock(kDay * 2 + kHour * 3 + kMinute * 4 + 5);
  EXPECT_EQ(clock.to_string(), "day 2 03:04:05");
  EXPECT_EQ(format_duration(125), "2:05");
  EXPECT_EQ(format_duration(kHour + 62), "1:01:02");
}

// --------------------------------------------------------------- strutil

TEST(StrutilTest, SplitJoin) {
  EXPECT_EQ(split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("/a", '/'), (std::vector<std::string>{"", "a"}));
  EXPECT_EQ(join({"x", "y"}, ", "), "x, y");
}

TEST(StrutilTest, PrefixSuffix) {
  EXPECT_TRUE(starts_with("/usr/bin/ls", "/usr"));
  EXPECT_FALSE(starts_with("/usr", "/usr/bin"));
  EXPECT_TRUE(ends_with("module.ko", ".ko"));
  EXPECT_FALSE(ends_with("ko", "module.ko"));
}

TEST(StrutilTest, GlobMatch) {
  EXPECT_TRUE(glob_match("/tmp/*", "/tmp/payload"));
  EXPECT_TRUE(glob_match("/tmp/*", "/tmp/a/b/c"));  // '*' crosses '/'
  EXPECT_FALSE(glob_match("/tmp/*", "/usr/bin/ls"));
  EXPECT_TRUE(glob_match("*.ko", "rootkit.ko"));
  EXPECT_TRUE(glob_match("/snap/core?0/*/bin/ls", "/snap/core20/1891/bin/ls"));
  EXPECT_FALSE(glob_match("/snap/core?0/bin", "/snap/core220/bin"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("**", "anything/at/all"));
}

TEST(StrutilTest, Format) {
  EXPECT_EQ(strformat("%s=%d", "x", 42), "x=42");
}

TEST(StrutilTest, ParseDecimalAcceptsDigitsUpToTheBound) {
  EXPECT_EQ(parse_decimal("0", 5), 0u);
  EXPECT_EQ(parse_decimal("366", 366), 366u);
  EXPECT_EQ(parse_decimal("007", 366), 7u);
  EXPECT_EQ(parse_decimal("18446744073709551615", UINT64_MAX), UINT64_MAX);
  for (const char* bad : {"", "abc", "-5", "+5", " 5", "5 ", "0x10", "1e3",
                          "3.0", "12a"}) {
    EXPECT_FALSE(parse_decimal(bad, 1000).has_value()) << bad;
  }
  EXPECT_FALSE(parse_decimal("367", 366).has_value());
  EXPECT_FALSE(parse_decimal("9", 5).has_value());
  EXPECT_FALSE(parse_decimal("18446744073709551616", UINT64_MAX).has_value());
  EXPECT_FALSE(parse_decimal("99999999999999999999999", UINT64_MAX).has_value());
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(StatsTest, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, EvenMedian) {
  EXPECT_DOUBLE_EQ(summarize({1, 2, 3, 4}).median, 2.5);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
}

TEST(StatsTest, AsciiSeriesContainsValues) {
  const std::string chart = ascii_series({1.0, 2.0}, "day", "minutes");
  EXPECT_NE(chart.find("1.00"), std::string::npos);
  EXPECT_NE(chart.find("2.00"), std::string::npos);
  EXPECT_NE(chart.find("minutes"), std::string::npos);
}

}  // namespace
}  // namespace cia

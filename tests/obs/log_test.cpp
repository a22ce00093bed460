// Structured JSON-lines logging (obs/log.hpp): line rendering (envelope,
// escaping, trace correlation), per-site rate limiting with suppressed
// counts, and the level filter.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/log.hpp"

namespace bbmg::obs {
namespace {

TEST(LogRender, EnvelopeFieldsAndOrder) {
  const std::string line = render_log_line(
      LogLevel::Warn, "serve.session_failed", TraceContext{}, "disk died",
      {{"session", std::uint32_t{7}}, {"path", "/tmp/x"}}, 0);
  EXPECT_EQ(line.find("{\"ts_ms\":"), 0u);
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"serve.session_failed\""),
            std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"disk died\""), std::string::npos);
  // Numeric fields render unquoted, strings quoted.
  EXPECT_NE(line.find("\"session\":7"), std::string::npos);
  EXPECT_NE(line.find("\"path\":\"/tmp/x\""), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // No trace context: no trace/span keys.
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);
}

TEST(LogRender, TraceContextRendersAsHex) {
  const std::string line =
      render_log_line(LogLevel::Info, "e", TraceContext{0xabcdef12u, 0x34u},
                      "m", {}, 0);
  EXPECT_NE(line.find("\"trace\":\"00000000abcdef12\""), std::string::npos);
  EXPECT_NE(line.find("\"span\":\"0000000000000034\""), std::string::npos);
}

TEST(LogRender, EscapesQuotesBackslashesAndControls) {
  const std::string line = render_log_line(
      LogLevel::Error, "e", TraceContext{}, "a\"b\\c\nd\te", {}, 0);
  // Quotes/backslashes gain a backslash; control chars become \u00xx.
  EXPECT_NE(line.find("a\\\"b\\\\c\\u000ad\\u0009e"), std::string::npos);
}

TEST(LogRender, SuppressedCountOnFirstLineAfterBurst) {
  const std::string line =
      render_log_line(LogLevel::Warn, "e", TraceContext{}, "m", {}, 41);
  EXPECT_NE(line.find("\"suppressed\":41"), std::string::npos);
}

TEST(LogSite, AdmitsUpToTheCapThenSuppresses) {
  LogSite site(LogLevel::Info, "test.site");
  const std::uint64_t t0 = 1'000'000'000ull;  // any nonzero origin
  std::uint64_t suppressed = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(site.admit(t0 + i, 3, suppressed)) << i;
    EXPECT_EQ(suppressed, 0u);
  }
  EXPECT_FALSE(site.admit(t0 + 10, 3, suppressed));
  EXPECT_FALSE(site.admit(t0 + 11, 3, suppressed));
  // A new one-second window admits again and reports the burst size.
  EXPECT_TRUE(site.admit(t0 + 1'000'000'001ull, 3, suppressed));
  EXPECT_EQ(suppressed, 2u);
}

TEST(LogSite, ZeroCapMeansUnlimited) {
  LogSite site(LogLevel::Info, "test.unlimited");
  std::uint64_t suppressed = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(site.admit(1'000ull + i, 0, suppressed));
  }
}

TEST(Logger, LevelFilterDropsBelowMinLevel) {
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.min_level();
  logger.set_sink(nullptr);  // keep test output clean
  logger.set_min_level(LogLevel::Warn);
  const std::uint64_t before = logger.lines_emitted();
  BBMG_LOG_INFO("log_test.filtered", "should be dropped");
  EXPECT_EQ(logger.lines_emitted(), before);
  BBMG_LOG_ERROR("log_test.passed", "should be emitted");
  EXPECT_EQ(logger.lines_emitted(), before + 1);
  logger.set_min_level(old_level);
  logger.set_sink(stderr);
}

TEST(Logger, PerSiteRateLimitSuppressesFloods) {
  Logger& logger = Logger::instance();
  logger.set_sink(nullptr);
  logger.set_rate_limit(4);
  const std::uint64_t emitted_before = logger.lines_emitted();
  const std::uint64_t suppressed_before = logger.lines_suppressed();
  for (int i = 0; i < 100; ++i) {
    BBMG_LOG_WARN("log_test.flood", "same site every time");
  }
  const std::uint64_t emitted = logger.lines_emitted() - emitted_before;
  const std::uint64_t suppressed =
      logger.lines_suppressed() - suppressed_before;
  // The loop runs in well under a second: at most one window's worth (a
  // second window can open mid-loop on a slow machine) gets through.
  EXPECT_GE(emitted, 4u);
  EXPECT_LE(emitted, 8u);
  EXPECT_EQ(emitted + suppressed, 100u);
  logger.set_rate_limit(32);
  logger.set_sink(stderr);
}

TEST(Logger, WritesOneLinePerCallToTheSink) {
  Logger& logger = Logger::instance();
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.set_sink(sink);
  BBMG_LOG_ERROR("log_test.sink", "hello sink", {{"n", std::uint64_t{3}}});
  logger.set_sink(stderr);
  std::fflush(sink);
  std::rewind(sink);
  char buf[512] = {0};
  ASSERT_NE(std::fgets(buf, sizeof(buf), sink), nullptr);
  const std::string line(buf);
  EXPECT_NE(line.find("\"event\":\"log_test.sink\""), std::string::npos);
  EXPECT_NE(line.find("\"n\":3"), std::string::npos);
  std::fclose(sink);
}

}  // namespace
}  // namespace bbmg::obs

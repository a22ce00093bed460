// Crash flight recorder (obs/flight_recorder.hpp): the bounded event
// ring, dump rendering, and the real thing — a forked child takes a
// SIGSEGV and the parent reads back a postmortem dump written by the
// async-signal-safe handler.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace bbmg::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream ifs(path);
  std::stringstream buf;
  buf << ifs.rdbuf();
  return buf.str();
}

TEST(FlightRecorder, NotedLinesAppearInRenderOldestFirst) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.note("flight-test-alpha");
  fr.note("flight-test-beta");
  const std::string dump = fr.render();
  const std::size_t a = dump.find("flight-test-alpha");
  const std::size_t b = dump.find("flight-test-beta");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(dump.find("=== bbmg flight recorder dump ==="),
            std::string::npos);
  EXPECT_NE(dump.find("=== end dump ==="), std::string::npos);
}

TEST(FlightRecorder, StructuredLogLinesFeedTheRing) {
  Logger& logger = Logger::instance();
  logger.set_sink(nullptr);
  BBMG_LOG_ERROR("flight_test.event", "ring feed check");
  logger.set_sink(stderr);
  const std::string dump = FlightRecorder::instance().render();
  EXPECT_NE(dump.find("\"event\":\"flight_test.event\""), std::string::npos);
}

TEST(FlightRecorder, CachedMetricsSnapshotRendersInDump) {
  MetricsRegistry::instance()
      .counter("bbmg_flight_test_total")
      .inc(5);
  FlightRecorder& fr = FlightRecorder::instance();
  fr.cache_metrics();
  const std::string dump = fr.render();
  EXPECT_NE(dump.find("bbmg_flight_test_total 5"), std::string::npos);
}

TEST(FlightRecorder, LongLinesAreTruncatedNotDropped) {
  FlightRecorder& fr = FlightRecorder::instance();
  const std::string line = "flight-test-long-" + std::string(1000, 'x');
  fr.note(line);
  const std::string dump = fr.render();
  EXPECT_NE(dump.find("flight-test-long-"), std::string::npos);
  // The stored entry is bounded; the full kilobyte never round-trips.
  EXPECT_EQ(dump.find(std::string(900, 'x')), std::string::npos);
}

TEST(FlightRecorder, DumpToWritesAReadableFile) {
  const std::string path = ::testing::TempDir() + "/bbmg_flight_dump.txt";
  FlightRecorder& fr = FlightRecorder::instance();
  fr.note("flight-test-dump-to");
  ASSERT_TRUE(fr.dump_to(path));
  const std::string dump = slurp(path);
  EXPECT_NE(dump.find("signal: 0"), std::string::npos);
  EXPECT_NE(dump.find("flight-test-dump-to"), std::string::npos);
}

// The acceptance test: a child process arms the handler, logs a few
// structured lines, caches metrics, and dies of SIGSEGV; the parent finds
// a readable crash-11.log in the postmortem directory.
TEST(FlightRecorder, SigsegvInChildProducesPostmortemDump) {
  const std::string dir = ::testing::TempDir() + "/bbmg_postmortem_child";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: quiet stderr noise, arm, leave a trail, crash.
    Logger::instance().set_sink(nullptr);
    FlightRecorder::instance().arm_signal_handler(dir);
    BBMG_LOG_ERROR("flight_test.child", "about to crash");
    FlightRecorder::instance().cache_metrics();
    std::raise(SIGSEGV);
    _exit(0);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string dump = slurp(dir + "/crash-11.log");
  ASSERT_FALSE(dump.empty()) << "no postmortem dump written";
  EXPECT_NE(dump.find("=== bbmg flight recorder dump ==="),
            std::string::npos);
  EXPECT_NE(dump.find("signal: 11"), std::string::npos);
  EXPECT_NE(dump.find("\"event\":\"flight_test.child\""), std::string::npos);
  EXPECT_NE(dump.find("=== end dump ==="), std::string::npos);
}

}  // namespace
}  // namespace bbmg::obs

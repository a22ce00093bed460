// What a served session keeps in memory: one shared name list per task
// universe, published snapshots without the per-period frontier trace, and
// eviction of quiescent durable sessions past kWarmSessionCap — rebuilt on
// next use, byte-identical to a session that never left memory, without
// holding up requests for other sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "gen/random_model.hpp"
#include "robust/sanitizer.hpp"
#include "serve/session_manager.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

Trace small_trace(std::uint64_t seed, std::size_t periods = 4) {
  RandomModelParams params;
  params.num_tasks = 5;
  params.num_layers = 3;
  params.seed = seed;
  SimConfig cfg;
  cfg.seed = seed * 7 + 1;
  return simulate_trace(random_model(params), periods, cfg);
}

durable::DurableConfig fresh_dir(const std::string& name,
                                 std::size_t fsync_every = 32,
                                 std::size_t snapshot_every = 256) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return durable::DurableConfig{dir, fsync_every, snapshot_every};
}

RobustSnapshot offline(const Trace& trace, std::size_t periods) {
  RobustOnlineLearner learner(trace.task_names(), RobustConfig{});
  const auto raw = to_raw_periods(trace);
  for (std::size_t i = 0; i < periods; ++i) {
    (void)learner.observe_raw_period(raw[i]);
  }
  return learner.full_snapshot();
}

void expect_same_model(const RobustSnapshot& served,
                       const RobustSnapshot& want) {
  EXPECT_EQ(served.result.hypotheses, want.result.hypotheses);
  EXPECT_EQ(served.result.stats.merges, want.result.stats.merges);
  EXPECT_EQ(served.result.stats.periods_processed,
            want.result.stats.periods_processed);
  EXPECT_EQ(served.periods_seen, want.periods_seen);
  EXPECT_EQ(served.periods_quarantined, want.periods_quarantined);
  EXPECT_EQ(served.health, want.health);
}

void upload(SessionManager& mgr, SessionId id, const Trace& trace,
            std::size_t from, std::size_t to) {
  const auto raw = to_raw_periods(trace);
  for (std::size_t i = from; i < to; ++i) {
    ASSERT_EQ(mgr.submit(id, raw[i]), SubmitStatus::Accepted);
  }
  (void)mgr.resume_high_water(id);
}

/// Open kWarmSessionCap flushed sessions, pushing every older quiescent
/// session out of memory.
void fill_cap(SessionManager& mgr, const Trace& trace) {
  for (std::size_t s = 0; s < kWarmSessionCap; ++s) {
    upload(mgr, mgr.open_session(trace.task_names()), trace, 0, 1);
  }
}

TEST(SessionFootprint, SameUniverseSharesOneNameList) {
  SessionManager mgr(ManagerConfig{1, 8, fresh_dir("bbmg_fp_names")});
  const Trace trace = small_trace(1);
  const auto a = mgr.session(mgr.open_session(trace.task_names()));
  const auto b = mgr.session(mgr.open_session(trace.task_names()));
  const auto other = mgr.session(mgr.open_session({"x", "y"}));
  // The session's list is its sanitizer's; the store metadata points at
  // the same one, and so does every session over the same universe.
  const std::vector<std::string>* shared = &a->task_names().list();
  EXPECT_EQ(&b->task_names().list(), shared);
  EXPECT_EQ(&a->store()->meta().task_names.list(), shared);
  EXPECT_EQ(&b->store()->meta().task_names.list(), shared);
  EXPECT_NE(&other->task_names().list(), shared);
  EXPECT_EQ(a->task_names(), trace.task_names());
}

TEST(SessionFootprint, PublishedSnapshotCarriesNoPeriodTrace) {
  const Trace trace = small_trace(2, 6);
  RobustOnlineLearner learner(trace.task_names(), RobustConfig{});
  for (const auto& events : to_raw_periods(trace)) {
    (void)learner.observe_raw_period(events);
  }
  const RobustSnapshot published = learner.full_snapshot();
  EXPECT_TRUE(published.result.stats.frontier_after_period.empty());
  EXPECT_EQ(published.result.stats.periods_processed, 6u);
  // The streaming learner keeps no per-period history of its own either.
  EXPECT_TRUE(learner.learner().stats().frontier_after_period.empty());

  SessionManager mgr(ManagerConfig{1, 8, {}});
  const SessionId id = mgr.open_session(trace.task_names());
  upload(mgr, id, trace, 0, trace.num_periods());
  EXPECT_TRUE(
      mgr.query(id).snapshot->result.stats.frontier_after_period.empty());
}

TEST(SessionEviction, QuiescentSessionsLeaveMemoryAndComeBackByteIdentical) {
  SessionManager mgr(ManagerConfig{2, 64, fresh_dir("bbmg_fp_evict")});
  const std::size_t total = kWarmSessionCap + 6;
  std::vector<Trace> traces;
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < total; ++s) {
    traces.push_back(small_trace(100 + s % 9));
    ids.push_back(mgr.open_session(traces.back().task_names()));
    upload(mgr, ids.back(), traces.back(), 0, 3);
  }
  // One more session with a period still unflushed: never a victim.
  const Trace busy_trace = small_trace(7);
  const SessionId busy = mgr.open_session(busy_trace.task_names());
  ASSERT_EQ(mgr.submit(busy, to_raw_periods(busy_trace)[0]),
            SubmitStatus::Accepted);
  mgr.drain(busy);
  for (std::size_t s = 0; s < 8; ++s) {
    (void)mgr.open_session(traces[s].task_names());
  }
  EXPECT_LE(mgr.num_resident_sessions(), kWarmSessionCap);
  EXPECT_EQ(mgr.num_sessions(), total + 9);
  EXPECT_EQ(mgr.session_ids().size(), total + 9);

  // Every session — most of them rebuilt from disk — serves the model of
  // an uninterrupted learner.
  for (std::size_t s = 0; s < total; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    expect_same_model(*mgr.query(ids[s]).snapshot, offline(traces[s], 3));
  }
  EXPECT_EQ(mgr.stats(busy).processed, 1u);

  // An evicted session keeps learning where it stopped.
  upload(mgr, ids[0], traces[0], 3, 4);
  expect_same_model(*mgr.query(ids[0]).snapshot, offline(traces[0], 4));
  EXPECT_EQ(mgr.resume_high_water(ids[0]), 4u);
}

TEST(SessionEviction, ClosedSessionStaysClosedAcrossEviction) {
  SessionManager mgr(ManagerConfig{1, 64, fresh_dir("bbmg_fp_closed")});
  const Trace trace = small_trace(3);
  const SessionId closed = mgr.open_session(trace.task_names());
  upload(mgr, closed, trace, 0, 2);
  ASSERT_TRUE(mgr.close_session(closed));
  for (std::size_t s = 0; s < kWarmSessionCap + 1; ++s) {
    const SessionId id = mgr.open_session(trace.task_names());
    upload(mgr, id, trace, 0, 1);
  }
  ASSERT_LE(mgr.num_resident_sessions(), kWarmSessionCap);
  EXPECT_EQ(mgr.submit(closed, to_raw_periods(trace)[2]),
            SubmitStatus::UnknownSession);
  expect_same_model(*mgr.query(closed).snapshot, offline(trace, 2));
}

TEST(SessionEviction, RebuildDoesNotBlockOtherSessions) {
  namespace fs = std::filesystem;
  // An eviction checkpoints, so a rebuild is normally a snapshot load.
  // To make one slow enough to overlap, swap in the files of a session
  // whose whole 6000-period history is still in its WAL (no compaction,
  // no checkpoint: the manager that wrote it stopped like a crash).
  const Trace long_trace = small_trace(11, 6000);
  const durable::DurableConfig wal_dir =
      fresh_dir("bbmg_fp_rebuild_wal", std::size_t{1} << 20, 0);
  {
    SessionManager writer(ManagerConfig{1, 64, wal_dir});
    upload(writer, writer.open_session(long_trace.task_names()), long_trace,
           0, long_trace.num_periods());
  }
  const durable::DurableConfig dir = fresh_dir("bbmg_fp_rebuild");
  SessionManager mgr(ManagerConfig{2, 64, dir});
  const SessionId cold = mgr.open_session(long_trace.task_names());
  upload(mgr, cold, long_trace, 0, 1);
  const Trace trace = small_trace(12, 2);
  fill_cap(mgr, trace);
  const SessionId warm = mgr.open_session(trace.task_names());
  ASSERT_EQ(mgr.num_resident_sessions(), kWarmSessionCap);
  const fs::path cold_dir = fs::path(dir.dir) / durable::session_dirname(0);
  fs::remove_all(cold_dir);
  fs::copy(fs::path(wal_dir.dir) / durable::session_dirname(0), cold_dir);

  using Clock = std::chrono::steady_clock;
  const auto us_since = [](Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - t0)
        .count();
  };
  std::atomic<bool> rebuilt{false};
  std::int64_t rebuild_us = 0;
  std::thread rebuilder([&] {
    const auto t0 = Clock::now();
    (void)mgr.query(cold);
    rebuild_us = us_since(t0);
    rebuilt = true;
  });
  // Another session ingests and answers all through the rebuild; were the
  // manager's lock held meanwhile, one of these requests would wait out
  // most of the rebuild.
  const RobustSnapshot want = offline(trace, 2);
  const auto t_upload = Clock::now();
  upload(mgr, warm, trace, 0, 2);
  std::int64_t slowest_us = us_since(t_upload);
  std::size_t requests = 1;
  while (!rebuilt.load()) {
    const auto t0 = Clock::now();
    expect_same_model(*mgr.query(warm).snapshot, want);
    slowest_us = std::max<std::int64_t>(slowest_us, us_since(t0));
    ++requests;
  }
  rebuilder.join();
  ASSERT_GT(rebuild_us, 20000) << "rebuild too fast to show overlap";
  EXPECT_LT(slowest_us, rebuild_us / 4)
      << requests << " requests during a " << rebuild_us << " us rebuild";
  expect_same_model(*mgr.query(cold).snapshot,
                    offline(long_trace, long_trace.num_periods()));
}

TEST(SessionEviction, EvictionCheckpointsSoTheRebuildReplaysNothing) {
  SessionManager mgr(ManagerConfig{1, 64, fresh_dir("bbmg_fp_checkpoint")});
  const Trace trace = small_trace(6, 5);
  const SessionId id = mgr.open_session(trace.task_names());
  upload(mgr, id, trace, 0, 5);
  fill_cap(mgr, trace);
  const auto session = mgr.session(id);  // rebuilt
  ASSERT_NE(session->store(), nullptr);
  EXPECT_EQ(session->store()->snapshot_seq(), 5u);
  EXPECT_EQ(session->processed(), 5u);
  expect_same_model(*session->snapshot(), offline(trace, 5));
}

TEST(SessionEviction, LostStateIsAnErrorNotAnUnknownSession) {
  const durable::DurableConfig dir = fresh_dir("bbmg_fp_lost");
  SessionManager mgr(ManagerConfig{1, 64, dir});
  const Trace trace = small_trace(4);
  const SessionId lost = mgr.open_session(trace.task_names());
  upload(mgr, lost, trace, 0, 2);
  fill_cap(mgr, trace);
  ASSERT_LE(mgr.num_resident_sessions(), kWarmSessionCap);
  std::filesystem::remove_all(
      std::filesystem::path(dir.dir) /
      durable::session_dirname(static_cast<std::uint32_t>(lost.index())));

  EXPECT_EQ(mgr.submit(lost, to_raw_periods(trace)[2]), SubmitStatus::Failed);
  try {
    (void)mgr.query(lost);
    ADD_FAILURE() << "query of a session whose state is gone succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot be rebuilt"),
              std::string::npos)
        << e.what();
  }
  // Still a known id: listed, and the next request retries the rebuild.
  EXPECT_EQ(mgr.num_sessions(), kWarmSessionCap + 1);
  EXPECT_EQ(mgr.session_ids().front(), lost.index());
}

TEST(SessionEviction, RestartKeepsAtMostTheCapInMemory) {
  const durable::DurableConfig dir = fresh_dir("bbmg_fp_restart");
  const Trace trace = small_trace(5);
  {
    SessionManager mgr(ManagerConfig{2, 64, dir});
    upload(mgr, mgr.open_session(trace.task_names()), trace, 0, 3);
    fill_cap(mgr, trace);
    mgr.stop();
    mgr.checkpoint_all();
  }
  SessionManager mgr(ManagerConfig{2, 64, dir});
  EXPECT_EQ(mgr.recovery().sessions, kWarmSessionCap + 1);
  EXPECT_EQ(mgr.num_sessions(), kWarmSessionCap + 1);
  EXPECT_LE(mgr.num_resident_sessions(), kWarmSessionCap);
  expect_same_model(*mgr.query(SessionId{0u}).snapshot, offline(trace, 3));
}

}  // namespace
}  // namespace bbmg

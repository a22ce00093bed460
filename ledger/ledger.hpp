// Shared pieces of the ledger benchmark: options, the result report,
// seeded inputs, daemon deployment and the open-loop generator.  The
// end-to-end workloads live in ledger.cpp, the traced layer ladder in
// ladder.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "daemon.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "trace/trace.hpp"

namespace ledger {

// -- fixed workload parameters (README.md gives the reasons) -----------------

inline constexpr std::size_t kGmBound = 64;
inline constexpr std::size_t kReplayBound = 16;
inline constexpr std::size_t kLiveBound = 1;
inline constexpr std::size_t kLivePeriods = 10000;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string work;
};

// -- small utilities ---------------------------------------------------------

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double ms_since(std::int64_t t0);
[[nodiscard]] std::size_t nproc();
[[nodiscard]] double median_of(std::vector<double> v);

// -- the result --------------------------------------------------------------

struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// Record and print one metric (non-finite values read as 0).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Print a timing summary with its sample count and tail support.
  void timing(const std::string& what, const Summary& s,
              const std::string& unit) const;
  void mismatch(const std::string& why);
  /// The final stdout line.
  void print_json() const;
};

// -- inputs ------------------------------------------------------------------

/// One session's generated input: the task universe and its periods, both
/// as learner Periods (core rung) and as the raw events the wire carries.
struct SessionInput {
  std::vector<std::string> names;
  std::vector<bbmg::Period> periods;
  std::vector<std::vector<bbmg::Event>> events;
  std::size_t total_events{0};
};

[[nodiscard]] SessionInput session_from(const bbmg::Trace& trace);
void digest_session(Digest& d, const SessionInput& s);
/// The i-th GM-scale trace of a seed (18 tasks, 27 periods).
[[nodiscard]] bbmg::Trace gm_trace(std::uint64_t seed, std::size_t i);
[[nodiscard]] SessionInput gm_input(std::uint64_t seed, std::size_t i);
/// The k-th uploaded trace of replay connection `conn`.
[[nodiscard]] SessionInput replay_input(std::uint64_t seed, std::size_t conn,
                                        std::size_t k);
/// The live session: a long GM-model stream of kLivePeriods periods.
[[nodiscard]] SessionInput live_input(std::uint64_t seed);

[[nodiscard]] bbmg::RobustSnapshot offline_replay(const SessionInput& s,
                                                  std::size_t periods,
                                                  std::size_t bound);
/// Field-by-field comparison with the offline replay (the fields
/// fleet/verifier compares); empty when identical.
[[nodiscard]] std::string compare_snapshot(
    const bbmg::WireSnapshot& served, const bbmg::RobustSnapshot& offline,
    const std::vector<std::string>& names);

// -- daemons -----------------------------------------------------------------

/// One primary, optionally with a follower it replicates to.  The follower
/// is declared first so the primary stops (and stops shipping) before it.
struct Deployment {
  std::unique_ptr<Daemon> follower;
  std::unique_ptr<Daemon> primary;
};

/// Start bbmg_served with nproc() workers under `dir` (wiped first).
/// fsync_every 0 keeps the daemon's default group commit; `traced` turns
/// the span ring on.
[[nodiscard]] Deployment deploy(const std::string& dir,
                                std::size_t fsync_every, bool with_follower,
                                bool traced);

// -- open-loop generator -----------------------------------------------------

/// One session's periods sent on a fixed schedule over one connection,
/// period i as seq i + 1, while a second connection polls the durable
/// high-water mark with Resume and stamps every covered period committed.
struct OpenLoopPlan {
  std::uint16_t port{0};
  std::uint32_t sid{0};
  const SessionInput* input{nullptr};
  double rate{0.0};     ///< periods per second
  double seconds{0.0};  ///< length of the schedule
};

struct OpenLoopResult {
  std::vector<Slot> slots;
  std::int64_t end_ns{0};   ///< when the schedule ended
  std::int64_t horizon{0};  ///< when accounting stopped waiting for commits
};

/// Work run beside the generator until `done` turns true.  `sent` is the
/// highest seq the generator has sent so far.
using Sideline = std::function<void(const std::atomic<bool>& done,
                                    const std::atomic<std::uint64_t>& sent)>;

[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopPlan& plan,
                                           const Sideline& sideline);

/// Paced model queries on one persistent connection until `done`.
/// `pick(i)` names the session of the i-th query (UINT32_MAX skips it).
struct QueryLoad {
  std::vector<double> query_ms;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};
void run_queries(std::uint16_t port,
                 const std::function<std::uint32_t(std::size_t)>& pick,
                 const std::atomic<bool>& done, QueryLoad& out);

/// The end-to-end workloads and the traced ladder.
void run_gm(const Options& opt, Report& rep);
void run_replay(const Options& opt, Report& rep);
void run_ladder(const Options& opt, Report& rep);

}  // namespace ledger

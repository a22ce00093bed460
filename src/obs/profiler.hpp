// In-process observability, layer 4: a lightweight sampling self-profiler.
//
// A PhaseProfiler attributes the cost of a repeated unit of work (for the
// learner: one observed period) to a fixed set of named phases.  The unit
// is sampled 1-in-stride: an unsampled unit pays exactly one relaxed
// fetch_add (the sampling decision) and zero clock reads, so the profiler
// can stay on in production.
//
// One way to time a unit: PhaseProfiler::Unit.  On a sampled unit it takes
// one PhaseStamp at each phase boundary — the wall clock, the thread's
// PerfCounterGroup (one read(2), only when the PMU is supported) and the
// thread's allocation totals — and lap(phase) charges all three deltas to
// the phase that just ended.  A phase that runs *inside* another phase's
// lap (the learner's lattice merges inside its branch loop) is timed by
// Scopes on a Nested accumulator; the enclosing lap hands the nested cost
// to its own phase by split_nested(), the single proration rule: wall time
// and allocations move exactly, hardware counters (read only at lap
// boundaries — a read per nested region would cost a syscall each) split
// by the nested share of the lap's wall time.  The unit's total is its
// last stamp minus its first, so the phases add up to it exactly.
//
// Every dimension is registered up front, per phase:
//   `<prefix>_phase_{ns,calls,alloc_bytes,allocs}_total{phase="..."}` and
//   `<hw_prefix>_{cycles,instructions,cache_misses,branch_misses}_total`,
// plus `<prefix>_profiled_units_total` and `<prefix>_profiled_ns_total`,
// so the attribution rides every existing scrape surface — exposition, the
// wire MetricsRequest, and the bbmg_monitor telemetry plane.  Without a
// PMU the hw counters stay zero; with BBMG_ALLOC_TRACK off so do the alloc
// counters.
//
// Counter semantics at stride > 1: every record scales what it writes by
// the stride in force, so the registered counters are unbiased *estimates
// of the totals over all units* — the 1-in-stride sample stands in for the
// stride-1 units around it (the stride-exactness test pins this at strides
// 1/16/256).  Ratios — attributed_fraction(), per-phase shares,
// ns-per-call — are unaffected because the scale cancels.  bench_obs runs
// with stride 1 to make the attribution exact rather than estimated.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"

namespace bbmg::obs {

/// Default sampling stride: one unit in 16 is timed.
inline constexpr std::uint32_t kDefaultProfilerStride = 16;

/// Every profiled dimension, read once at a phase boundary.
struct PhaseStamp {
  std::uint64_t ns{0};
  PerfSample hw;
  AllocCounters alloc;
};

/// What a phase cost: the difference of two stamps, or a share of one.
struct PhaseCost {
  std::uint64_t ns{0};
  PerfDelta hw;
  std::uint64_t alloc_bytes{0};
  std::uint64_t allocs{0};
};

/// A lap's cost divided between its own phase and a region nested in it.
struct NestedSplit {
  PhaseCost outer;
  PhaseCost nested;
};

/// The proration rule.  `nested` holds the nested region's measured wall
/// time and allocations (its hw field is ignored); both move from `lap` to
/// the nested side, clamped to the lap.  The lap's hardware counters split
/// by the nested share of its wall time — an estimate that assumes similar
/// IPC on both sides — and all go to the outer side when the lap took no
/// measurable time.  outer + nested == lap in every dimension.
[[nodiscard]] NestedSplit split_nested(const PhaseCost& lap,
                                       const PhaseCost& nested);

class PhaseProfiler {
 public:
  /// Registers every per-phase dimension (see the file comment) into the
  /// process-wide registry.
  PhaseProfiler(const std::string& prefix, const std::string& hw_prefix,
                std::vector<std::string> phase_names);

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Sampling decision for the next unit of work; true 1-in-stride.  Unit
  /// makes it on construction.
  [[nodiscard]] bool sample() {
    const std::uint32_t stride = stride_.load(std::memory_order_relaxed);
    return tick_.fetch_add(1, std::memory_order_relaxed) % stride == 0;
  }

  /// Time one unit in `stride`; 1 times every unit.  Throws bbmg::Error
  /// on 0.
  void set_stride(std::uint32_t stride);
  [[nodiscard]] std::uint32_t stride() const {
    return stride_.load(std::memory_order_relaxed);
  }

  /// Charge `cost` and `calls` to `phase` (index into the constructor's
  /// phase_names) for a sampled unit, scaled by the stride.
  void record(std::size_t phase, const PhaseCost& cost,
              std::uint64_t calls = 1);
  /// Record a sampled unit's total wall time (the attribution denominator).
  void record_unit(std::uint64_t total_ns);

  /// The cost of a phase nested inside other phases' laps, fed by Scopes
  /// and handed to `phase` by the enclosing Unit::lap().
  struct Nested {
    std::size_t phase{0};
    PhaseCost cost;  // wall ns and allocations; hw is prorated at the lap
    std::uint64_t calls{0};
  };

  /// RAII timer of one nested region: adds its wall time, allocations and
  /// one call to `*nested`.  Inert on null (an unsampled unit), so the hot
  /// path pays one pointer test.
  class Scope {
   public:
    explicit Scope(Nested* nested) : nested_(nested) {
      if (nested_ != nullptr) begin();
    }
    ~Scope() {
      if (nested_ != nullptr) end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    void begin();
    void end();

    Nested* nested_;
    std::uint64_t ns0_{0};
    AllocCounters alloc0_;
  };

  /// One unit of work.  Construction makes the sampling decision and, on a
  /// sampled unit, takes the opening stamp; destruction records the unit
  /// total.  Unsampled units never read a clock.
  class Unit {
   public:
    explicit Unit(PhaseProfiler& profiler);
    ~Unit() {
      if (sampled_) finish();
    }
    Unit(const Unit&) = delete;
    Unit& operator=(const Unit&) = delete;

    /// The accumulator that Scopes of nested phase `phase` feed; null on an
    /// unsampled unit.
    [[nodiscard]] Nested* nest(std::size_t phase);

    /// End the phase that ran since the previous boundary: take one stamp
    /// and charge the delta to `phase` with `calls`, less the nested
    /// regions timed during the lap, which go to their own phase.
    void lap(std::size_t phase, std::uint64_t calls = 1) {
      if (sampled_) lap_sampled(phase, calls);
    }

   private:
    [[nodiscard]] PhaseStamp stamp() const;
    void lap_sampled(std::size_t phase, std::uint64_t calls);
    void finish();

    PhaseProfiler& profiler_;
    PerfCounterGroup* hw_{nullptr};  // null when unsampled or no PMU
    bool sampled_;
    std::uint64_t stamps_{0};
    PhaseStamp first_;
    PhaseStamp last_;
    Nested nested_;
  };

  [[nodiscard]] std::size_t num_phases() const { return slots_.size(); }
  [[nodiscard]] const std::string& phase_name(std::size_t phase) const;

  /// Accumulated totals (for benches and tests; scrapers read the
  /// registered metrics instead).  Stride-scaled like the counters.
  [[nodiscard]] std::uint64_t phase_ns(std::size_t phase) const;
  [[nodiscard]] std::uint64_t phase_calls(std::size_t phase) const;
  [[nodiscard]] PerfDelta phase_hw(std::size_t phase) const;
  [[nodiscard]] std::uint64_t phase_alloc_bytes(std::size_t phase) const;
  [[nodiscard]] std::uint64_t phase_allocs(std::size_t phase) const;
  [[nodiscard]] std::uint64_t units() const { return units_->value(); }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_->value(); }
  /// Boundary stamps taken by sampled units, not stride-scaled: each costs
  /// one counter-group read when the PMU is supported, which is how
  /// bench_obs prices the hardware-counter dimension.
  [[nodiscard]] std::uint64_t stamps() const {
    return stamps_.load(std::memory_order_relaxed);
  }
  /// Sum over phases / total — the fraction of profiled unit wall time
  /// attributed to named phases (0 when nothing was sampled).
  [[nodiscard]] double attributed_fraction() const;

 private:
  struct Slot {
    std::string name;
    Counter* ns{nullptr};
    Counter* calls{nullptr};
    Counter* cycles{nullptr};
    Counter* instructions{nullptr};
    Counter* cache_misses{nullptr};
    Counter* branch_misses{nullptr};
    Counter* alloc_bytes{nullptr};
    Counter* allocs{nullptr};
  };

  std::vector<Slot> slots_;
  Counter* units_{nullptr};
  Counter* total_ns_{nullptr};
  std::atomic<std::uint32_t> stride_{kDefaultProfilerStride};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> stamps_{0};
};

}  // namespace bbmg::obs

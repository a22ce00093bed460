#include "obs/profiler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace bbmg::obs {

namespace {

/// `end - begin` in every dimension (saturating at zero).
PhaseCost cost_between(const PhaseStamp& begin, const PhaseStamp& end) {
  const AllocCounters a = alloc_delta(begin.alloc, end.alloc);
  return PhaseCost{end.ns > begin.ns ? end.ns - begin.ns : 0,
                   perf_delta(begin.hw, end.hw), a.bytes, a.count};
}

}  // namespace

NestedSplit split_nested(const PhaseCost& lap, const PhaseCost& nested) {
  NestedSplit s;
  s.nested.ns = std::min(nested.ns, lap.ns);
  s.nested.alloc_bytes = std::min(nested.alloc_bytes, lap.alloc_bytes);
  s.nested.allocs = std::min(nested.allocs, lap.allocs);
  if (lap.ns > 0 && s.nested.ns > 0) {
    const double f =
        static_cast<double>(s.nested.ns) / static_cast<double>(lap.ns);
    const auto share = [f](std::uint64_t v) {
      return static_cast<std::uint64_t>(static_cast<double>(v) * f);
    };
    s.nested.hw.cycles = share(lap.hw.cycles);
    s.nested.hw.instructions = share(lap.hw.instructions);
    s.nested.hw.cache_misses = share(lap.hw.cache_misses);
    s.nested.hw.branch_misses = share(lap.hw.branch_misses);
  }
  s.outer.ns = lap.ns - s.nested.ns;
  s.outer.alloc_bytes = lap.alloc_bytes - s.nested.alloc_bytes;
  s.outer.allocs = lap.allocs - s.nested.allocs;
  s.outer.hw.cycles = lap.hw.cycles - s.nested.hw.cycles;
  s.outer.hw.instructions = lap.hw.instructions - s.nested.hw.instructions;
  s.outer.hw.cache_misses = lap.hw.cache_misses - s.nested.hw.cache_misses;
  s.outer.hw.branch_misses = lap.hw.branch_misses - s.nested.hw.branch_misses;
  return s;
}

PhaseProfiler::PhaseProfiler(const std::string& prefix,
                             const std::string& hw_prefix,
                             std::vector<std::string> phase_names) {
  BBMG_REQUIRE(!phase_names.empty(), "profiler: need at least one phase");
  MetricsRegistry& reg = MetricsRegistry::instance();
  const auto per_phase = [&reg](const std::string& family,
                                const std::string& phase, const char* help) {
    return &reg.counter(labeled_name(family, "phase", phase), help);
  };
  slots_.reserve(phase_names.size());
  for (std::string& name : phase_names) {
    Slot slot;
    slot.ns = per_phase(prefix + "_phase_ns_total", name,
                        "Estimated nanoseconds attributed to each phase of "
                        "the profiled unit (stride-scaled sample)");
    slot.calls = per_phase(prefix + "_phase_calls_total", name,
                           "Estimated phase executions (stride-scaled "
                           "sample)");
    slot.cycles = per_phase(hw_prefix + "_cycles_total", name,
                            "Estimated CPU cycles per phase (stride-scaled "
                            "perf sample)");
    slot.instructions = per_phase(hw_prefix + "_instructions_total", name,
                                  "Estimated retired instructions per phase "
                                  "(stride-scaled perf sample)");
    slot.cache_misses = per_phase(hw_prefix + "_cache_misses_total", name,
                                  "Estimated cache misses per phase "
                                  "(stride-scaled perf sample)");
    slot.branch_misses = per_phase(hw_prefix + "_branch_misses_total", name,
                                   "Estimated branch misses per phase "
                                   "(stride-scaled perf sample)");
    slot.alloc_bytes = per_phase(prefix + "_phase_alloc_bytes_total", name,
                                 "Estimated heap bytes requested per phase "
                                 "(stride-scaled sample; zero when "
                                 "BBMG_ALLOC_TRACK is off)");
    slot.allocs = per_phase(prefix + "_phase_allocs_total", name,
                            "Estimated allocations per phase (stride-scaled "
                            "sample; zero when BBMG_ALLOC_TRACK is off)");
    slot.name = std::move(name);
    slots_.push_back(std::move(slot));
  }
  units_ = &reg.counter(prefix + "_profiled_units_total",
                        "Estimated units of work covered by the sampling "
                        "profiler (stride-scaled)");
  total_ns_ = &reg.counter(
      prefix + "_profiled_ns_total",
      "Estimated total wall nanoseconds of profiled units (attribution "
      "denominator, stride-scaled)");
}

void PhaseProfiler::set_stride(std::uint32_t stride) {
  BBMG_REQUIRE(stride >= 1, "profiler: stride must be at least 1");
  stride_.store(stride, std::memory_order_relaxed);
}

void PhaseProfiler::record(std::size_t phase, const PhaseCost& cost,
                           std::uint64_t calls) {
  if (phase >= slots_.size()) return;
  const std::uint64_t k = stride();
  const Slot& slot = slots_[phase];
  slot.ns->inc(cost.ns * k);
  slot.calls->inc(calls * k);
  const auto add = [k](Counter* c, std::uint64_t v) {
    if (v != 0) c->inc(v * k);
  };
  add(slot.cycles, cost.hw.cycles);
  add(slot.instructions, cost.hw.instructions);
  add(slot.cache_misses, cost.hw.cache_misses);
  add(slot.branch_misses, cost.hw.branch_misses);
  add(slot.alloc_bytes, cost.alloc_bytes);
  add(slot.allocs, cost.allocs);
}

void PhaseProfiler::record_unit(std::uint64_t total_ns) {
  const std::uint64_t k = stride();
  units_->inc(k);
  total_ns_->inc(total_ns * k);
}

// -- nested regions and units ----------------------------------------------

void PhaseProfiler::Scope::begin() {
  alloc0_ = thread_alloc_counters();
  ns0_ = now_ns();
}

void PhaseProfiler::Scope::end() {
  nested_->cost.ns += now_ns() - ns0_;
  const AllocCounters d = alloc_delta(alloc0_, thread_alloc_counters());
  nested_->cost.alloc_bytes += d.bytes;
  nested_->cost.allocs += d.count;
  ++nested_->calls;
}

PhaseProfiler::Unit::Unit(PhaseProfiler& profiler)
    : profiler_(profiler), sampled_(profiler.sample()) {
  if (!sampled_) return;
  PerfCounterGroup& group = PerfCounterGroup::this_thread();
  if (group.supported()) hw_ = &group;
  first_ = stamp();
  last_ = first_;
  stamps_ = 1;
}

PhaseStamp PhaseProfiler::Unit::stamp() const {
  PhaseStamp s;
  s.ns = now_ns();
  if (hw_ != nullptr) s.hw = hw_->read();
  s.alloc = thread_alloc_counters();
  return s;
}

PhaseProfiler::Nested* PhaseProfiler::Unit::nest(std::size_t phase) {
  if (!sampled_) return nullptr;
  nested_.phase = phase;
  return &nested_;
}

void PhaseProfiler::Unit::lap_sampled(std::size_t phase, std::uint64_t calls) {
  const PhaseStamp now = stamp();
  ++stamps_;
  PhaseCost cost = cost_between(last_, now);
  last_ = now;
  if (nested_.calls > 0) {
    const NestedSplit split = split_nested(cost, nested_.cost);
    profiler_.record(nested_.phase, split.nested, nested_.calls);
    cost = split.outer;
    nested_.cost = PhaseCost{};
    nested_.calls = 0;
  }
  profiler_.record(phase, cost, calls);
}

void PhaseProfiler::Unit::finish() {
  profiler_.record_unit(last_.ns - first_.ns);
  profiler_.stamps_.fetch_add(stamps_, std::memory_order_relaxed);
}

// -- totals ------------------------------------------------------------------

const std::string& PhaseProfiler::phase_name(std::size_t phase) const {
  BBMG_REQUIRE(phase < slots_.size(), "profiler: phase index out of range");
  return slots_[phase].name;
}

std::uint64_t PhaseProfiler::phase_ns(std::size_t phase) const {
  return phase >= slots_.size() ? 0 : slots_[phase].ns->value();
}

std::uint64_t PhaseProfiler::phase_calls(std::size_t phase) const {
  return phase >= slots_.size() ? 0 : slots_[phase].calls->value();
}

PerfDelta PhaseProfiler::phase_hw(std::size_t phase) const {
  if (phase >= slots_.size()) return PerfDelta{};
  const Slot& s = slots_[phase];
  return PerfDelta{s.cycles->value(), s.instructions->value(),
                   s.cache_misses->value(), s.branch_misses->value()};
}

std::uint64_t PhaseProfiler::phase_alloc_bytes(std::size_t phase) const {
  return phase >= slots_.size() ? 0 : slots_[phase].alloc_bytes->value();
}

std::uint64_t PhaseProfiler::phase_allocs(std::size_t phase) const {
  return phase >= slots_.size() ? 0 : slots_[phase].allocs->value();
}

double PhaseProfiler::attributed_fraction() const {
  const std::uint64_t total = total_ns_->value();
  if (total == 0) return 0.0;
  std::uint64_t named = 0;
  for (const Slot& s : slots_) named += s.ns->value();
  return static_cast<double>(named) / static_cast<double>(total);
}

}  // namespace bbmg::obs

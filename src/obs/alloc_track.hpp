// Thread-local allocation attribution (DESIGN.md "Performance
// observability").
//
// When built with -DBBMG_ALLOC_TRACK=1 (CMake sets it unless BBMG_SANITIZE
// is configured: sanitizer interceptors own the allocator), this TU replaces
// the global operator new/delete set with a shim that does exactly two
// plain thread_local increments per allocation and then forwards to
// malloc/free.  No atomics, no locks, no size classes: the counters are
// per-thread running totals, and every consumer reads *deltas* around a
// region of interest on its own thread — the learner charges each profiler
// phase, the robust learner charges the version space, bench_obs prices the
// bookkeeping itself (E16).
//
// Caveats (also in DESIGN.md): deallocations are counted but bytes freed
// are not known for the sized-delete-free paths, so `bytes` counts bytes
// *requested*, a churn measure, not live heap; allocations made by other
// threads on behalf of this one (e.g. a worker pool) are charged to the
// allocating thread; and with BBMG_ALLOC_TRACK=0 every counter reads zero
// while the API keeps working, so callers need no #ifdefs.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef BBMG_ALLOC_TRACK
#define BBMG_ALLOC_TRACK 0
#endif

namespace bbmg::obs {

/// True when the replaceable-new shim is compiled in.
inline constexpr bool kAllocTrackEnabled = BBMG_ALLOC_TRACK != 0;

/// Per-thread running totals since thread start (monotone; read deltas).
struct AllocCounters {
  std::uint64_t bytes{0};  ///< bytes requested from operator new
  std::uint64_t count{0};  ///< number of allocations
  std::uint64_t frees{0};  ///< number of deallocations
};

/// This thread's totals.  Cheap enough for per-merge reads (three
/// thread-local loads).
[[nodiscard]] AllocCounters thread_alloc_counters();

/// End - begin, the charge for a region bracketed by two
/// thread_alloc_counters() reads on the same thread.
[[nodiscard]] AllocCounters alloc_delta(const AllocCounters& begin,
                                        const AllocCounters& end);

/// The exact bookkeeping the shim runs per allocation, exposed so bench_obs
/// can price one call directly (E16's overhead model multiplies this by the
/// allocation count instead of trusting a noisy wall-clock A/B).
void note_alloc(std::size_t bytes);
/// Per-deallocation bookkeeping (same purpose).
void note_free();

}  // namespace bbmg::obs

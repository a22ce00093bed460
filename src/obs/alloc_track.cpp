#include "obs/alloc_track.hpp"

#include <cstdlib>
#include <new>

namespace bbmg::obs {

namespace {

// Trivially-destructible POD so reads stay safe during thread teardown
// (operator delete runs for other TLS destructors after ours would have).
struct Cell {
  std::uint64_t bytes;
  std::uint64_t count;
  std::uint64_t frees;
};
thread_local Cell tl_alloc{0, 0, 0};

}  // namespace

AllocCounters thread_alloc_counters() {
  return AllocCounters{tl_alloc.bytes, tl_alloc.count, tl_alloc.frees};
}

AllocCounters alloc_delta(const AllocCounters& begin, const AllocCounters& end) {
  auto sub = [](std::uint64_t a, std::uint64_t b) { return b > a ? b - a : 0; };
  return AllocCounters{sub(begin.bytes, end.bytes), sub(begin.count, end.count),
                       sub(begin.frees, end.frees)};
}

void note_alloc(std::size_t bytes) {
  tl_alloc.bytes += bytes;
  ++tl_alloc.count;
}

void note_free() { ++tl_alloc.frees; }

}  // namespace bbmg::obs

#if BBMG_ALLOC_TRACK

// Replaceable global allocation functions.  This TU is pulled into every
// binary that reads thread_alloc_counters() (the learner's profiler does),
// which is what makes a static-library replacement reliable: the reference
// forces the object file in, and its strong operator new definitions then
// replace the libstdc++ weak ones for the whole program.
namespace {

void* tracked_alloc(std::size_t n) {
  bbmg::obs::note_alloc(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* tracked_alloc_aligned(std::size_t n, std::size_t align) {
  bbmg::obs::note_alloc(n);
  std::size_t a = align < sizeof(void*) ? sizeof(void*) : align;
  void* p = nullptr;
  if (posix_memalign(&p, a, n == 0 ? a : n) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = tracked_alloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t n) {
  void* p = tracked_alloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t align) {
  void* p = tracked_alloc_aligned(n, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t n, std::align_val_t align) {
  void* p = tracked_alloc_aligned(n, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return tracked_alloc_aligned(n, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return tracked_alloc_aligned(n, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept {
  if (p != nullptr) bbmg::obs::note_free();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  if (p != nullptr) bbmg::obs::note_free();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }

void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete[](p);
}

void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }

void operator delete[](void* p, std::align_val_t) noexcept {
  operator delete[](p);
}

void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  operator delete(p);
}

void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  operator delete[](p);
}

void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  operator delete(p);
}

void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  operator delete[](p);
}

#endif  // BBMG_ALLOC_TRACK

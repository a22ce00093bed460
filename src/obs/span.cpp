#include "obs/span.hpp"

#include <chrono>

namespace bbmg::obs {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint32_t current_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

SpanRing::SpanRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

SpanRing& SpanRing::instance() {
  static SpanRing ring;
  return ring;
}

namespace {

/// Process-wide eviction counter shared by every ring; resolved lazily so
/// ring construction never races registry initialization.
Counter& span_drops_counter() {
  static Counter& c =
      MetricsRegistry::instance().counter("bbmg_obs_span_drops_total");
  return c;
}

}  // namespace

void SpanRing::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  next_ = 0;
}

std::size_t SpanRing::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void SpanRing::record(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_ % capacity_] = record;
    ++dropped_;
    span_drops_counter().inc();
  }
  ++next_;
  ++total_;
}

std::vector<SpanRecord> SpanRing::copy_locked() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_ % capacity_ is the oldest slot once the ring has wrapped.
    const std::size_t start = next_ % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(start + i) % capacity_]);
    }
  }
  return out;
}

std::vector<SpanRecord> SpanRing::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return copy_locked();
}

std::vector<SpanRecord> SpanRing::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out = copy_locked();
  ring_.clear();
  next_ = 0;
  return out;
}

void SpanRing::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

std::uint64_t SpanRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t SpanRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace bbmg::obs

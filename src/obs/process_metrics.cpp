#include "obs/process_metrics.hpp"

#include <cstdio>
#include <mutex>

#include "obs/metrics.hpp"

#ifdef __linux__
#include <dirent.h>
#include <unistd.h>
#endif

namespace bbmg::obs {

namespace {

#ifdef __linux__

bool read_statm(std::uint64_t& vm_bytes, std::uint64_t& rss_bytes) {
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return false;
  unsigned long long vm_pages = 0;
  unsigned long long rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return false;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::uint64_t page_bytes = page > 0 ? static_cast<std::uint64_t>(page)
                                            : 4096u;
  vm_bytes = vm_pages * page_bytes;
  rss_bytes = rss_pages * page_bytes;
  return true;
}

bool read_cpu_millis(std::uint64_t& cpu_millis) {
  std::FILE* f = std::fopen("/proc/self/stat", "re");
  if (f == nullptr) return false;
  // Fields 14 (utime) and 15 (stime) in clock ticks; field 2 is the comm,
  // which may contain spaces but is parenthesised — skip past the last ')'.
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return false;
  buf[n] = '\0';
  const char* p = buf;
  for (const char* q = buf; q < buf + n; ++q) {
    if (*q == ')') p = q + 1;
  }
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // After ')': field 3 (state) then fields 4..13, then utime stime.
  if (std::sscanf(p,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return false;
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  const std::uint64_t ticks_per_sec = hz > 0 ? static_cast<std::uint64_t>(hz)
                                             : 100u;
  cpu_millis = (utime + stime) * 1000u / ticks_per_sec;
  return true;
}

bool count_fds(std::uint64_t& open_fds) {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return false;
  std::uint64_t n = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  // Exclude the directory fd opendir itself holds.
  open_fds = n > 0 ? n - 1 : 0;
  return true;
}

#endif  // __linux__

}  // namespace

ProcessSelfStats read_process_self_stats() {
  ProcessSelfStats s;
#ifdef __linux__
  s.ok = read_statm(s.vm_bytes, s.rss_bytes) && read_cpu_millis(s.cpu_millis) &&
         count_fds(s.open_fds);
#endif
  return s;
}

void refresh_process_metrics() {
  static std::mutex mu;
  static std::uint64_t last_cpu_millis = 0;
  const ProcessSelfStats s = read_process_self_stats();
  if (!s.ok) return;

  std::lock_guard<std::mutex> lock(mu);
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.gauge("bbmg_process_rss_bytes", "Resident set size of this process")
      .set(static_cast<std::int64_t>(s.rss_bytes));
  reg.gauge("bbmg_process_vm_bytes", "Virtual memory size of this process")
      .set(static_cast<std::int64_t>(s.vm_bytes));
  reg.gauge("bbmg_process_open_fds", "Open file descriptors of this process")
      .set(static_cast<std::int64_t>(s.open_fds));
  // Counter semantics: advance by the delta since the last refresh so the
  // exported value is monotone even across this process's own refreshes.
  // Registry counters are integral, so the conventional seconds counter is
  // whole seconds; the millis twin carries the precision.
  // Register both counters even at zero so every scrape carries them; a
  // counter that appears only once CPU accrues confuses rate() queries.
  Counter& cpu_millis = reg.counter(
      "bbmg_process_cpu_millis_total",
      "User+system CPU time consumed by this process, milliseconds");
  Counter& cpu_seconds = reg.counter(
      "bbmg_process_cpu_seconds_total",
      "User+system CPU time consumed by this process, seconds");
  if (s.cpu_millis > last_cpu_millis) {
    cpu_millis.inc(s.cpu_millis - last_cpu_millis);
    const std::uint64_t secs = s.cpu_millis / 1000u;
    const std::uint64_t last_secs = last_cpu_millis / 1000u;
    if (secs > last_secs) cpu_seconds.inc(secs - last_secs);
    last_cpu_millis = s.cpu_millis;
  }
}

MetricsSnapshot scrape_snapshot() {
  refresh_process_metrics();
  return MetricsRegistry::instance().snapshot();
}

}  // namespace bbmg::obs

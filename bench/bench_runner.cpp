// bench_runner: the continuous-bench driver (DESIGN.md "Performance
// observability").
//
// Executes the declared matrix of sibling bench_* binaries and folds their
// per-bench BENCH_<name>.json documents into one schema-versioned
// BENCH_all.json that tools/bench_compare diffs against the committed
// baselines under bench/baselines/.  The runner is the half that *collects*
// numbers; the gate logic (noise tolerances, regression verdicts) lives
// entirely in bench_compare, so a baseline update never needs a runner
// change.
//
//   bench_runner [--quick] [--only a,b,c] [--out BENCH_all.json]
//
//   --quick  run only the quick tier (obs, serve, bound_runtime) — the CI
//            configuration; the full matrix adds the subprocess-heavy
//            harnesses
//   --only   comma-separated subset of matrix names (overrides --quick)
//   --out    output path (default BENCH_all.json in the CWD)
//
// Exit code: 0 when every selected bench executed and produced parseable
// JSON; 1 otherwise.  A bench's own nonzero exit (a blown budget) does NOT
// fail the runner — it is recorded as the `exit` metric and judged by
// bench_compare against the baseline, so a regression is reported with the
// numbers that show it, not an opaque subprocess failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "common/json.hpp"
#include "common/stopwatch.hpp"

namespace {

constexpr const char* kSchema = "bbmg-bench/1";

struct MatrixEntry {
  const char* name;    // matrix name and binary suffix (bench_<name>)
  const char* output;  // JSON document the bench writes into the CWD
  bool quick;          // part of the CI quick tier
};

/// The declared matrix.  Quick tier: in-process harnesses that finish in
/// seconds.  Full tier adds the harnesses that fork bbmg_served daemons.
constexpr MatrixEntry kMatrix[] = {
    {"obs", "BENCH_obs.json", true},
    {"serve", "BENCH_serve.json", true},
    {"bound_runtime", "BENCH_bound_runtime.json", true},
    {"recovery", "BENCH_recovery.json", false},
    {"cluster", "BENCH_cluster.json", false},
    {"fleet", "BENCH_fleet.json", false},
    {"monitor", "BENCH_monitor.json", false},
    {"control", "BENCH_control.json", false},
};

std::string dir_of(const char* argv0) {
  std::string s(argv0);
  const std::size_t slash = s.rfind('/');
  return slash == std::string::npos ? std::string(".") : s.substr(0, slash);
}

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
#else
  return status;
#endif
}

bool selected(const std::vector<std::string>& only, bool quick,
              const MatrixEntry& e) {
  if (!only.empty()) {
    for (const std::string& n : only) {
      if (n == e.name) return true;
    }
    return false;
  }
  return !quick || e.quick;
}

/// Re-serialize one parsed bench document (only the shapes our benches
/// emit; strings escaped minimally — they are metric annotations).
void render(const bbmg::json::Value& v, std::ostringstream& os) {
  using bbmg::json::Kind;
  switch (v.kind()) {
    case Kind::Null:
      os << "null";
      break;
    case Kind::Bool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case Kind::Number:
      os << v.as_number();
      break;
    case Kind::String: {
      os << '"';
      for (const char c : v.as_string()) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
      }
      os << '"';
      break;
    }
    case Kind::Array: {
      os << '[';
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) os << ',';
        first = false;
        render(e, os);
      }
      os << ']';
      break;
    }
    case Kind::Object: {
      os << '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) os << ',';
        first = false;
        os << '"' << k << "\":";
        render(e, os);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_all.json";
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) only.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_runner [--quick] [--only a,b,c] "
                   "[--out BENCH_all.json]\n");
      return 1;
    }
  }

  const std::string bin_dir = dir_of(argv[0]);
  std::ostringstream doc;
  doc << "{\n  \"schema\": \"" << kSchema << "\",\n"
      << "  \"mode\": \"" << (only.empty() ? (quick ? "quick" : "full")
                                           : "subset")
      << "\",\n  \"benches\": {";

  bool all_ok = true;
  bool first = true;
  std::size_t ran = 0;
  for (const MatrixEntry& e : kMatrix) {
    if (!selected(only, quick, e)) continue;
    ++ran;
    const std::string binary = bin_dir + "/bench_" + e.name;
    std::printf("[bench_runner] running %s ...\n", binary.c_str());
    std::fflush(stdout);
    bbmg::Stopwatch watch;
    const int exit_code = run_command(binary);
    const double wall_ms = watch.elapsed_ms();
    if (exit_code < 0) {
      std::fprintf(stderr, "[bench_runner] %s: failed to execute\n",
                   binary.c_str());
      all_ok = false;
      continue;
    }

    std::ifstream ifs(e.output);
    std::stringstream body;
    body << ifs.rdbuf();
    const bbmg::json::ParseResult parsed = bbmg::json::parse(body.str());
    if (!ifs.good() && body.str().empty()) {
      std::fprintf(stderr, "[bench_runner] %s: wrote no %s\n", binary.c_str(),
                   e.output);
      all_ok = false;
      continue;
    }
    if (!parsed.ok) {
      std::fprintf(stderr, "[bench_runner] %s: unparseable %s (%s)\n",
                   binary.c_str(), e.output, parsed.error.c_str());
      all_ok = false;
      continue;
    }

    if (!first) doc << ',';
    first = false;
    doc << "\n    \"" << e.name << "\": {\"exit\": " << exit_code
        << ", \"wall_ms\": " << wall_ms << ", \"metrics\": ";
    render(parsed.value, doc);
    doc << "}";
    std::printf("[bench_runner] %s: exit %d in %.0f ms\n", e.name, exit_code,
                wall_ms);
  }
  doc << "\n  }\n}\n";

  if (ran == 0) {
    std::fprintf(stderr, "[bench_runner] nothing selected\n");
    return 1;
  }
  std::ofstream ofs(out_path);
  ofs << doc.str();
  if (!ofs.good()) {
    std::fprintf(stderr, "[bench_runner] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("[bench_runner] wrote %s (%zu benches)\n", out_path.c_str(),
              ran);
  return all_ok ? 0 : 1;
}

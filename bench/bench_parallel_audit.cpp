// Parallel-audit scaling sweep: audits the forum, wiki, and conf workloads at 1/2/4/8
// worker threads and emits machine-readable JSON (BENCH_parallel_audit.json) so the perf
// trajectory is tracked PR over PR. Each point is the median of kRunsPerPoint audits,
// with the fastest and slowest beside it: one sub-second run is too noisy to compare.
//
// Correctness cross-checks ride along: every run at every thread count must produce the
// same verdict and the same final-state fingerprint as the first single-threaded run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/auditor.h"

namespace orochi {
namespace {

constexpr int kRunsPerPoint = 5;

struct Sweep {
  std::string workload;
  size_t requests = 0;
  struct Point {
    size_t threads;
    double total_seconds;  // Median of kRunsPerPoint runs.
    double min_seconds;
    double max_seconds;
    bool accepted;               // Every run accepted.
    bool matches_single_thread;  // Every run matched the first 1-thread run.
  };
  std::vector<Point> points;
};

Sweep RunSweep(const char* name, const Workload& w) {
  Sweep sweep;
  sweep.workload = name;
  sweep.requests = w.items.size();
  ServedRun served = ServeForBench(w, /*record=*/true);
  std::string base_fp;
  bool base_accepted = false;
  bool have_base = false;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    AuditOptions options;
    options.num_threads = threads;
    Auditor auditor(&w.app, options);
    std::vector<double> seconds;
    bool accepted = true;
    bool matches = true;
    for (int run = 0; run < kRunsPerPoint; run++) {
      WallTimer wall;
      AuditResult r = auditor.Audit(served.trace, served.reports, w.initial);
      seconds.push_back(wall.Seconds());
      if (!r.accepted) {
        std::fprintf(stderr, "%s @%zu threads REJECTED: %s\n", name, threads,
                     r.reason.c_str());
      }
      std::string fp = r.accepted ? InitialStateFingerprint(r.final_state) : "";
      if (!have_base) {
        base_fp = fp;
        base_accepted = r.accepted;
        have_base = true;
      }
      accepted = accepted && r.accepted;
      matches = matches && r.accepted == base_accepted && fp == base_fp;
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[seconds.size() / 2];
    sweep.points.push_back(
        {threads, median, seconds.front(), seconds.back(), accepted, matches});
    std::fprintf(stderr, "  %-6s threads=%zu median=%.3fs [%.3f, %.3f] %s\n", name, threads,
                 median, seconds.front(), seconds.back(), accepted ? "ACCEPT" : "REJECT");
  }
  return sweep;
}

void EmitJson(const std::vector<Sweep>& sweeps) {
  FILE* f = std::fopen("BENCH_parallel_audit.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_parallel_audit.json");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"parallel_audit\",\n  \"scale\": %.3f,\n"
               "  \"runs_per_point\": %d,\n  \"meta\": %s,\n  \"sweeps\": [\n",
               BenchScale(), kRunsPerPoint, BenchMetaJson().c_str());
  for (size_t i = 0; i < sweeps.size(); i++) {
    const Sweep& s = sweeps[i];
    std::fprintf(f, "    {\"workload\": \"%s\", \"requests\": %zu, \"points\": [\n",
                 s.workload.c_str(), s.requests);
    double base = s.points.empty() ? 0 : s.points[0].total_seconds;
    for (size_t j = 0; j < s.points.size(); j++) {
      const Sweep::Point& p = s.points[j];
      std::fprintf(f,
                   "      {\"threads\": %zu, \"total_seconds\": %.6f, "
                   "\"min_seconds\": %.6f, \"max_seconds\": %.6f, "
                   "\"speedup_vs_1\": %.3f, \"accepted\": %s, "
                   "\"matches_single_thread\": %s}%s\n",
                   p.threads, p.total_seconds, p.min_seconds, p.max_seconds,
                   p.total_seconds > 0 ? base / p.total_seconds : 0.0,
                   p.accepted ? "true" : "false",
                   p.matches_single_thread ? "true" : "false",
                   j + 1 < s.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace orochi

int main() {
  using namespace orochi;
  std::vector<Sweep> sweeps;
  std::fprintf(stderr, "parallel audit sweep (OROCHI_BENCH_SCALE=%.3f, hw threads=%u)\n",
               BenchScale(), std::thread::hardware_concurrency());
  sweeps.push_back(RunSweep("forum", BenchForum()));
  sweeps.push_back(RunSweep("wiki", BenchWiki()));
  sweeps.push_back(RunSweep("conf", BenchConf()));
  EmitJson(sweeps);
  std::fprintf(stderr, "wrote BENCH_parallel_audit.json\n");
  bool all_match = true;
  for (const Sweep& s : sweeps) {
    for (const auto& p : s.points) {
      all_match = all_match && p.matches_single_thread;
    }
  }
  if (!all_match) {
    std::fprintf(stderr, "ERROR: results diverged across thread counts\n");
    return 1;
  }
  return 0;
}

// Streamed vs. in-memory epoch audit: wall time and memory for the forum/wiki/conf
// workloads, emitted as BENCH_stream_audit.json so the out-of-core path's overhead and
// memory ceiling are tracked PR over PR.
//
// Per workload the harness serves one epoch, spills it to wire-format files, then audits
// the files twice: streamed and fully in-memory. The streamed run pages trace payloads
// AND op-log contents under ONE budget (peak residency reported by the ChunkBudget). It
// runs FIRST because ru_maxrss is a process-lifetime high-water mark — ordering it first
// means the reported streamed RSS was not inflated by the in-memory trace/reports
// materialization. Correctness cross-checks ride along: both paths must accept and agree
// on the final state, and the streamed peak must respect max(budget, largest single
// admission) — one chunk bigger than the whole budget is legitimately admitted alone.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/stream/stream_audit.h"

namespace orochi {
namespace {

// Default streamed-audit budget; OROCHI_AUDIT_BUDGET overrides.
constexpr size_t kDefaultBudget = 256 * 1024;

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux; monotone over the process lifetime.
}

struct Row {
  std::string workload;
  size_t requests = 0;
  size_t trace_file_bytes = 0;
  size_t reports_file_bytes = 0;
  size_t request_payload_bytes = 0;  // Trace-side bytes the budget pages.
  uint64_t oplog_payload_bytes = 0;  // Reports-side bytes the budget pages.
  uint64_t budget_bytes = 0;
  uint64_t peak_resident_bytes = 0;  // ChunkBudget high-water mark: trace + reports.
  uint64_t largest_admission_bytes = 0;
  double streamed_seconds = 0;
  double in_memory_seconds = 0;
  long rss_after_streamed_kb = 0;
  long rss_after_in_memory_kb = 0;
  bool accepted = false;
  bool states_match = false;
};

Row RunOne(const char* name, const Workload& w, const std::string& dir) {
  Row row;
  row.workload = name;
  row.requests = w.items.size();
  ServedRun served = ServeForBench(w, /*record=*/true);
  const std::string trace_path = dir + "/" + row.workload + "_trace.bin";
  const std::string reports_path = dir + "/" + row.workload + "_reports.bin";
  if (!WriteTraceFile(trace_path, served.trace).ok() ||
      !WriteReportsFile(reports_path, served.reports).ok()) {
    std::fprintf(stderr, "%s: spill failed\n", name);
    return row;
  }
  row.trace_file_bytes = served.trace.WireBytes();
  row.reports_file_bytes = served.reports.WireBytes();
  // Shed the in-memory copies: the point of the comparison is what each *audit* keeps
  // resident, not what the serving harness did.
  served.trace = Trace{};
  served.reports = Reports{};

  AuditOptions options;
  if (std::getenv("OROCHI_AUDIT_BUDGET") == nullptr) {
    options.max_resident_bytes = kDefaultBudget;
  }
  // Modest chunks so paging churns; a chunk is charged for its request payloads plus the
  // op-log contents its checks compare against, and the invariant below uses the
  // budget's own largest-admission ledger to account for any oversized chunk.
  options.max_group_size = 512;

  {
    StreamTraceSet trace_probe;
    if (Result<uint32_t> r = trace_probe.AppendFile(trace_path); !r.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, r.error().c_str());
      return row;
    }
    row.request_payload_bytes = trace_probe.total_request_payload_bytes();
    StreamReportsSet reports_probe;
    if (Status st = reports_probe.AppendFile(reports_path); !st.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, st.error().c_str());
      return row;
    }
    row.oplog_payload_bytes = reports_probe.total_log_payload_bytes();
  }

  Result<uint64_t> resolved_budget = ResolveAuditBudget(options);
  if (!resolved_budget.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, resolved_budget.error().c_str());
    return row;
  }

  ChunkBudget budget(resolved_budget.value());
  row.budget_bytes = budget.max_bytes();
  Result<AuditResult> streamed_result = Result<AuditResult>::Error("not run");
  {
    StreamAuditHooks hooks;
    hooks.budget = &budget;
    AuditSession streamed = AuditSession::Open(&w.app, options, w.initial);
    WallTimer stream_wall;
    streamed_result = streamed.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    row.streamed_seconds = stream_wall.Seconds();
    row.peak_resident_bytes = budget.peak_bytes();
    row.largest_admission_bytes = budget.largest_acquire_bytes();
  }
  row.rss_after_streamed_kb = PeakRssKb();
  if (!streamed_result.ok() || !streamed_result.value().accepted) {
    std::fprintf(stderr, "%s streamed REJECTED/errored: %s\n", name,
                 streamed_result.ok() ? streamed_result.value().reason.c_str()
                                      : streamed_result.error().c_str());
    return row;
  }

  AuditSession in_memory = AuditSession::Open(&w.app, options, w.initial);
  WallTimer mem_wall;
  Result<AuditResult> memory_result = in_memory.FeedEpochFiles(trace_path, reports_path);
  row.in_memory_seconds = mem_wall.Seconds();
  row.rss_after_in_memory_kb = PeakRssKb();
  if (!memory_result.ok() || !memory_result.value().accepted) {
    std::fprintf(stderr, "%s in-memory REJECTED/errored\n", name);
    return row;
  }
  row.accepted = true;
  const std::string memory_fp = InitialStateFingerprint(memory_result.value().final_state);
  row.states_match =
      InitialStateFingerprint(streamed_result.value().final_state) == memory_fp;
  std::fprintf(stderr,
               "  %-6s streamed=%.3fs in_memory=%.3fs peak_resident=%llu/%llu bytes "
               "(%zu trace + %llu oplog on disk) %s\n",
               name, row.streamed_seconds, row.in_memory_seconds,
               static_cast<unsigned long long>(row.peak_resident_bytes),
               static_cast<unsigned long long>(row.budget_bytes),
               row.request_payload_bytes,
               static_cast<unsigned long long>(row.oplog_payload_bytes),
               row.states_match ? "MATCH" : "DIVERGED");
  return row;
}

void EmitJson(const std::vector<Row>& rows) {
  FILE* f = std::fopen("BENCH_stream_audit.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_stream_audit.json");
    return;
  }
  // Every audit runs at the default thread count: OROCHI_AUDIT_THREADS, else one worker
  // per hardware thread.
  Result<size_t> threads = ResolveAuditThreads(AuditOptions());
  std::fprintf(f,
               "{\n  \"bench\": \"stream_audit\",\n  \"scale\": %.3f,\n"
               "  \"audit_threads\": %zu,\n  \"meta\": %s,\n  \"rows\": [\n",
               BenchScale(), threads.ok() ? threads.value() : 0, BenchMetaJson().c_str());
  for (size_t i = 0; i < rows.size(); i++) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"requests\": %zu, \"trace_file_bytes\": %zu,\n"
        "     \"reports_file_bytes\": %zu, \"request_payload_bytes\": %zu,\n"
        "     \"oplog_payload_bytes\": %llu, \"budget_bytes\": %llu,\n"
        "     \"peak_resident_bytes\": %llu, \"largest_admission_bytes\": %llu,\n"
        "     \"streamed_seconds\": %.6f,\n"
        "     \"in_memory_seconds\": %.6f, \"streamed_over_in_memory\": %.3f,\n"
        "     \"peak_rss_after_streamed_kb\": %ld, \"peak_rss_after_in_memory_kb\": %ld,\n"
        "     \"accepted\": %s, \"states_match\": %s}%s\n",
        r.workload.c_str(), r.requests, r.trace_file_bytes, r.reports_file_bytes,
        r.request_payload_bytes, static_cast<unsigned long long>(r.oplog_payload_bytes),
        static_cast<unsigned long long>(r.budget_bytes),
        static_cast<unsigned long long>(r.peak_resident_bytes),
        static_cast<unsigned long long>(r.largest_admission_bytes), r.streamed_seconds,
        r.in_memory_seconds,
        r.in_memory_seconds > 0 ? r.streamed_seconds / r.in_memory_seconds : 0.0,
        r.rss_after_streamed_kb, r.rss_after_in_memory_kb, r.accepted ? "true" : "false",
        r.states_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace orochi

int main() {
  using namespace orochi;
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr ? std::string(tmp) : std::string("/tmp")) +
                    "/orochi_bench_stream_audit";
  if (std::system(("mkdir -p " + dir).c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  std::fprintf(stderr, "stream audit bench (OROCHI_BENCH_SCALE=%.3f)\n", BenchScale());
  std::vector<Row> rows;
  rows.push_back(RunOne("forum", BenchForum(), dir));
  rows.push_back(RunOne("wiki", BenchWiki(), dir));
  rows.push_back(RunOne("conf", BenchConf(), dir));
  EmitJson(rows);
  std::fprintf(stderr, "wrote BENCH_stream_audit.json\n");
  for (const Row& r : rows) {
    // `accepted` distinguishes "a stage failed outright" (spill error, reject, file
    // error — already reported by RunOne) from a completed run whose states diverged.
    if (!r.accepted) {
      std::fprintf(stderr, "ERROR: %s did not complete both audits\n", r.workload.c_str());
      return 1;
    }
    if (!r.states_match) {
      std::fprintf(stderr, "ERROR: %s diverged between streamed and in-memory audits\n",
                   r.workload.c_str());
      return 1;
    }
    // A single admission larger than the whole budget runs alone (the oversized-chunk
    // path), so the enforceable ceiling is max(budget, largest admission).
    uint64_t ceiling = std::max(r.budget_bytes, r.largest_admission_bytes);
    if (r.budget_bytes > 0 && r.peak_resident_bytes > ceiling) {
      std::fprintf(stderr, "ERROR: %s exceeded the resident-byte budget\n",
                   r.workload.c_str());
      return 1;
    }
  }
  return 0;
}

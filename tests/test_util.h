// Shared helpers for the test suite: run a workload through the recording server and hand
// back everything an audit needs.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/objects/reports.h"
#include "src/objects/stores.h"
#include "src/objects/trace.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/thread_server.h"
#include "src/workload/workloads.h"

namespace orochi {

struct ServedWorkload {
  Trace trace;
  Reports reports;
  InitialState initial;   // The state the audit bootstraps from.
  InitialState final_state;  // The server's state after the run (ground truth).
};

// Serves every item of the workload on `num_workers` threads with recording enabled and
// returns the collected trace + reports.
inline ServedWorkload ServeWorkload(const Workload& workload, int num_workers = 4) {
  ServedWorkload out;
  out.initial = workload.initial;
  ServerCore core(&workload.app, workload.initial, ServerOptions{.record_reports = true});
  Collector collector;
  {
    ThreadServer server(&core, &collector, num_workers);
    RequestId next_rid = 1;
    for (const WorkItem& item : workload.items) {
      server.Submit(next_rid++, item.script, item.params);
    }
    server.Drain();
  }
  out.trace = collector.TakeTrace();
  out.reports = core.TakeReports();
  out.final_state = core.SnapshotState();
  return out;
}

// The in-memory reference for the spill-file feeds: decodes both files whole with
// ReadTraceFile/ReadReportsFile, then audits them with FeedEpoch. A file-level error is
// an error Result and feeds no epoch, as on the streamed feeds.
inline Result<AuditResult> FeedDecodedFiles(AuditSession* session,
                                            const std::string& trace_path,
                                            const std::string& reports_path) {
  Result<Trace> trace = ReadTraceFile(trace_path);
  if (!trace.ok()) {
    return trace.status();
  }
  Result<Reports> reports = ReadReportsFile(reports_path);
  if (!reports.ok()) {
    return reports.status();
  }
  return session->FeedEpoch(trace.value(), reports.value());
}

// Base seed for randomized sweeps: OROCHI_TEST_SEED when set (decimal or 0x-hex), else
// `default_seed`. Sweeps derive their per-phase seeds from this base by fixed offsets, so
// exporting the value a failure printed reruns the exact same schedule. A malformed seed
// is a config error — silently reverting to the default would rerun the wrong schedule.
inline uint64_t TestBaseSeed(uint64_t default_seed) {
  const char* env = std::getenv("OROCHI_TEST_SEED");
  if (env == nullptr || *env == '\0') {
    return default_seed;
  }
  Result<uint64_t> parsed = ParseSeed(env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config: OROCHI_TEST_SEED='%s' is not a valid seed (%s)\n", env,
                 parsed.error().c_str());
    std::exit(2);
  }
  return parsed.value();
}

// gtest SCOPED_TRACE message naming the base seed, so any failing assertion in a seeded
// sweep prints the exact rerun command.
inline std::string SeedTraceMessage(uint64_t base_seed) {
  return "rerun with OROCHI_TEST_SEED=" + std::to_string(base_seed);
}

}  // namespace orochi

#endif  // TESTS_TEST_UTIL_H_

// Sharded, out-of-core epoch audit end to end: the deployment where N collector-fronted
// front ends each spill their slice of an epoch and ONE verifier audits them all without
// ever materializing the epoch's trace in memory.
//
//   front end 1 (shard 1) ─ Flush/Export ─┐
//   front end 2 (shard 2) ─ Flush/Export ─┼─ manifest ──► AuditSession::FeedShardedEpoch:
//   front end 3 (shard 3) ─ Flush/Export ─┘               pass 1 streams a skeleton+index,
//                                                         pass 2 pages group chunks in
//                                                         under OROCHI_AUDIT_BUDGET and
//                                                         checks each chunk's responses
//
// The demo audits the merged epoch under a deliberately tiny budget (set
// OROCHI_AUDIT_BUDGET to override; default here is 16 KiB — far below the spilled trace),
// shows a tampered shard rejecting with a deterministic reason while the pristine re-feed
// accepts, and cross-checks that the streamed sharded verdict and end state are
// bit-identical to one fully in-memory audit over the merged epoch.
//
// Build & run:  cmake -B build && cmake --build build && ./build/sharded_stream_audit
// OROCHI_BENCH_SCALE scales the request count (CI smoke-runs with a small scale).
// OROCHI_FAULT_SEED routes every spill write and audit read through a fault-injecting
// environment seeded with that value, firing only absorbable faults (transient read
// errors + short reads): the demo must behave IDENTICALLY — retries and read loops hide
// them — which is exactly what the CI fault matrix asserts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "examples/example_util.h"
#include "src/common/io_env.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/tamper.h"
#include "src/server/thread_server.h"
#include "src/stream/stream_audit.h"
#include "src/workload/workloads.h"

using namespace orochi;
using demo::DemoFaultEnv;
using demo::Fail;
using demo::Scale;

namespace {

constexpr uint32_t kShards = 3;

// One front end's slice of the epoch: disjoint key/user space and a disjoint rid range,
// served on its own executor behind its own shard-stamped collector.
struct FrontEnd {
  std::string trace_path;
  std::string reports_path;
};

// Serves one shard and spills it. A failed Flush/ExportReports is a hard error for the
// front end — the trace/reports stay in memory for a retry, and shipping a partial
// epoch to the verifier is exactly what the atomic spill path exists to prevent.
bool ServeShard(const Workload& w, uint32_t shard_id, size_t requests,
                const std::string& dir, Env* env, FrontEnd* out) {
  ServerCore core(&w.app, w.initial,
                  ServerOptions{.record_reports = true, .io_env = env});
  Collector collector(shard_id, env);
  demo::ServeCounterShardSlice(&core, &collector, shard_id, /*epoch=*/1, requests);
  out->trace_path = dir + "/trace_shard" + std::to_string(shard_id) + ".bin";
  out->reports_path = dir + "/reports_shard" + std::to_string(shard_id) + ".bin";
  if (Status st = collector.Flush(out->trace_path); !st.ok()) {
    return Fail("shard " + std::to_string(shard_id) + " flush: " + st.error());
  }
  if (Status st = core.ExportReports(out->reports_path); !st.ok()) {
    return Fail("shard " + std::to_string(shard_id) + " export: " + st.error());
  }
  return true;
}

bool RunDemo() {
  const std::string dir = demo::ScratchDir("sharded_stream_audit");
  if (dir.empty()) {
    return Fail("cannot create a scratch directory");
  }

  // The sharded deployment's contract: every front end starts from the same agreed
  // initial state and serves a disjoint slice of the traffic.
  Result<Workload> workload = demo::MakeCounterWorkload();
  if (!workload.ok()) {
    return Fail(workload.error());
  }
  const Workload& w = workload.value();
  const size_t per_shard = static_cast<size_t>(600 * Scale()) + 8;

  Env* fault_env = DemoFaultEnv();
  if (fault_env != nullptr) {
    std::printf("fault injection: on (OROCHI_FAULT_SEED=%s, absorbable faults only)\n",
                std::getenv("OROCHI_FAULT_SEED"));
  }

  // --- Front-end side: three shards serve and spill, and a manifest names the pairs. ---
  ShardManifest manifest;
  manifest.epoch = 1;
  std::vector<FrontEnd> front_ends;
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    FrontEnd fe;
    if (!ServeShard(w, shard, per_shard, dir, fault_env, &fe)) {
      return false;
    }
    front_ends.push_back(fe);
    manifest.shards.push_back(
        {shard, "trace_shard" + std::to_string(shard) + ".bin",
         "reports_shard" + std::to_string(shard) + ".bin"});
    std::printf("shard %u: served %zu requests -> %s\n", shard, per_shard,
                front_ends.back().trace_path.c_str());
  }
  const std::string manifest_path = dir + "/epoch_1.manifest";
  if (Status st = WriteShardManifestFile(manifest_path, manifest); !st.ok()) {
    return Fail(st.error());
  }

  // --- Verifier side: stream the sharded epoch under a tiny memory budget. ---
  AuditOptions options;
  // Small chunks so the budget forces real eviction churn: a chunk is charged for its
  // request payloads AND the op-log entry contents its checks compare against, so chunks
  // must stay comfortably under the budget to avoid the oversized-chunk admission path.
  options.max_group_size = 16;
  options.io_env = fault_env;  // nullptr = posix; every verifier read retries transients.
  if (std::getenv("OROCHI_AUDIT_BUDGET") == nullptr) {
    options.max_resident_bytes = 16 * 1024;
  }
  Result<uint64_t> resolved_budget = ResolveAuditBudget(options);
  if (!resolved_budget.ok()) {
    return Fail(resolved_budget.error());
  }
  ChunkBudget budget(resolved_budget.value());
  StreamAuditHooks hooks;
  hooks.budget = &budget;

  uint64_t spilled_bytes = 0;
  uint64_t spilled_log_bytes = 0;
  {
    StreamTraceSet probe;
    StreamReportsSet reports_probe;
    for (const FrontEnd& fe : front_ends) {
      Result<uint32_t> r = probe.AppendFile(fe.trace_path, fault_env);
      if (!r.ok()) {
        return Fail(r.error());
      }
      if (Status st = reports_probe.AppendFile(fe.reports_path, fault_env); !st.ok()) {
        return Fail(st.error());
      }
    }
    spilled_bytes = probe.total_request_payload_bytes();
    spilled_log_bytes = reports_probe.total_log_payload_bytes();
  }
  std::printf(
      "epoch on disk: %llu request-payload bytes + %llu op-log bytes; resident budget: "
      "%llu bytes (covers both)\n",
      static_cast<unsigned long long>(spilled_bytes),
      static_cast<unsigned long long>(spilled_log_bytes),
      static_cast<unsigned long long>(budget.max_bytes()));

  AuditSession session = AuditSession::Open(&w.app, options, w.initial);
  Result<AuditResult> r1 = session.FeedShardedEpoch(manifest_path, &hooks);
  if (!r1.ok()) {
    return Fail(r1.error());
  }
  if (!r1.value().accepted) {
    return Fail("sharded epoch should accept: " + r1.value().reason);
  }
  std::printf(
      "sharded audit: ACCEPT (%llu groups; peak resident trace+reports bytes %llu <= %llu)\n",
      static_cast<unsigned long long>(r1.value().stats.num_groups),
      static_cast<unsigned long long>(budget.peak_bytes()),
      static_cast<unsigned long long>(budget.max_bytes()));
  if (budget.max_bytes() > 0 && budget.peak_bytes() > budget.max_bytes()) {
    return Fail("budget was not honored");
  }
  if (budget.peak_bytes() >= spilled_bytes + spilled_log_bytes) {
    return Fail("streaming never evicted anything (peak == whole epoch)");
  }

  // --- An adversary rewrites a response inside shard 2's spilled trace. ---
  Result<Trace> shard2 = ReadTraceFile(front_ends[1].trace_path);
  if (!shard2.ok()) {
    return Fail(shard2.error());
  }
  RequestId victim = 0;
  for (const TraceEvent& e : shard2.value().events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      victim = e.rid;
      break;
    }
  }
  if (!TamperResponseBody(&shard2.value(), victim, "<html>forged response</html>")) {
    return Fail("tamper target rid not found");
  }
  const std::string pristine = dir + "/trace_shard2_pristine.bin";
  std::string mv = "cp " + front_ends[1].trace_path + " " + pristine;
  if (std::system(mv.c_str()) != 0) {
    return Fail("cannot back up shard 2");
  }
  // The adversary preserves the shard stamp — a missing stamp would be caught as a
  // manifest mismatch before the audit even ran.
  if (Status st = WriteTraceFile(front_ends[1].trace_path, shard2.value(), 2); !st.ok()) {
    return Fail(st.error());
  }

  AuditSession session2 = AuditSession::Open(&w.app, options, w.initial);
  Result<AuditResult> r2 = session2.FeedShardedEpoch(manifest_path, &hooks);
  if (!r2.ok()) {
    return Fail(r2.error());
  }
  if (r2.value().accepted) {
    return Fail("tampered shard 2 should reject the epoch");
  }
  std::printf("sharded audit (shard 2 tampered): REJECT — %s\n", r2.value().reason.c_str());

  // Rejection left the session chain untouched; restoring the pristine shard re-audits
  // the same epoch and accepts.
  std::string restore = "cp " + pristine + " " + front_ends[1].trace_path;
  if (std::system(restore.c_str()) != 0) {
    return Fail("cannot restore shard 2");
  }
  Result<AuditResult> r3 = session2.FeedShardedEpoch(manifest_path, &hooks);
  if (!r3.ok() || !r3.value().accepted) {
    return Fail("pristine re-feed should accept: " +
                (r3.ok() ? r3.value().reason : r3.error()));
  }
  std::printf("sharded audit (pristine re-feed): ACCEPT\n");

  // --- Cross-check: streamed + sharded == one in-memory audit of the merged epoch. ---
  Trace merged_trace;
  Reports merged_reports;
  for (const FrontEnd& fe : front_ends) {
    Result<Trace> t = ReadTraceFile(fe.trace_path);
    Result<Reports> rep = ReadReportsFile(fe.reports_path);
    if (!t.ok() || !rep.ok()) {
      return Fail("re-reading spill files failed");
    }
    merged_trace.events.insert(merged_trace.events.end(), t.value().events.begin(),
                               t.value().events.end());
    if (Status st = AppendReports(&merged_reports, rep.value()); !st.ok()) {
      return Fail(st.error());
    }
  }
  AuditSession in_memory = AuditSession::Open(&w.app, options, w.initial);
  AuditResult combined = in_memory.FeedEpoch(merged_trace, merged_reports);
  if (!combined.accepted) {
    return Fail("in-memory merged audit should accept: " + combined.reason);
  }
  if (InitialStateFingerprint(combined.final_state) !=
      InitialStateFingerprint(session2.state())) {
    return Fail("streamed sharded end state diverges from the in-memory merged audit");
  }
  std::printf("cross-check: streamed sharded end state == in-memory merged audit state\n");
  if (fault_env != nullptr) {
    std::printf("fault injection: %llu absorbable faults fired and were hidden by "
                "retries/short-read loops\n",
                static_cast<unsigned long long>(DemoFaultEnv()->faults_injected()));
  }
  return true;
}

}  // namespace

int main() {
  bool ok = RunDemo();
  std::printf("sharded_stream_audit: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

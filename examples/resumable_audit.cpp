// Resumable out-of-core audit end to end: a verifier is killed mid-pass-2, leaves its
// sidecar checkpoint journal behind, and a fresh process resumes the same epoch —
// reusing every journaled chunk instead of re-executing it — to a verdict and end state
// bit-identical to an uninterrupted audit.
//
//   run 1: FeedEpochFilesStreamed + checkpoint_path ── killed mid-pass-2 ──► kIoError,
//          journal of completed chunks survives (fsynced per chunk, torn-tail tolerant)
//   run 2: same files + same checkpoint_path ──► ACCEPT, checkpoint_chunks_reused > 0,
//          end state == an uninterrupted reference audit; the verdict spends the journal
//
// Build & run:  cmake -B build && cmake --build build && ./build/resumable_audit
// OROCHI_BENCH_SCALE scales the request count (CI smoke-runs with a small scale).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "examples/example_util.h"
#include "src/common/io_env.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/thread_server.h"
#include "src/stream/stream_audit.h"
#include "src/workload/workloads.h"

using namespace orochi;

using demo::Fail;
using demo::Scale;

namespace {

// Simulates the verifier process dying mid-pass-2: the first `allowed` payload loads
// succeed (their chunks retire, check their responses and are journaled), then every
// load fails permanently.
class KillSwitchLoader : public TraceChunkLoader {
 public:
  KillSwitchLoader(const StreamTraceSet* set, uint64_t allowed)
      : real_(set), allowed_(allowed) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    if (loads_.fetch_add(1) >= allowed_) {
      const std::string& path = set.file_path(set.loc(index).file);
      return Status::Error("io: verifier killed at payload load " +
                           std::to_string(allowed_) + " in " + path)
          .At(path, set.loc(index).offset);
    }
    return real_.Load(set, index, event);
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    real_.Evict(set, index, event);
  }

 private:
  FileTraceChunkLoader real_;
  std::atomic<uint64_t> loads_{0};
  const uint64_t allowed_;
};

bool RunDemo() {
  const std::string dir = demo::ScratchDir("resumable");
  if (dir.empty()) {
    return Fail("cannot create a scratch directory");
  }

  Result<Workload> workload = demo::MakeCounterWorkload();
  if (!workload.ok()) {
    return Fail(workload.error());
  }
  const Workload& w = workload.value();
  const size_t requests = static_cast<size_t>(1200 * Scale()) + 64;

  // Serve and spill one epoch.
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  {
    ThreadServer server(&core, &collector, /*num_workers=*/4);
    for (size_t i = 0; i < requests; i++) {
      RequestParams params;
      params["key"] = "k" + std::to_string(i % 13);
      params["who"] = "u" + std::to_string(i % 19);
      server.Submit(static_cast<RequestId>(i + 1),
                    (i % 4 == 3) ? "/counter/read" : "/counter/hit", params);
    }
    server.Drain();
  }
  const std::string trace_path = dir + "/trace.bin";
  const std::string reports_path = dir + "/reports.bin";
  if (Status st = collector.Flush(trace_path); !st.ok()) {
    return Fail("flush: " + st.error());
  }
  if (Status st = core.ExportReports(reports_path); !st.ok()) {
    return Fail("export: " + st.error());
  }
  std::printf("served %zu requests -> %s\n", requests, trace_path.c_str());

  AuditOptions options;
  options.max_group_size = 16;
  options.max_resident_bytes = 16 * 1024;
  options.checkpoint_path = dir + "/audit.ckpt";

  // Uninterrupted reference (no checkpoint): what the resumed run must reproduce exactly.
  AuditOptions ref_options;
  ref_options.max_group_size = 16;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_options, w.initial);
  Result<AuditResult> ref = ref_session.FeedEpochFilesStreamed(trace_path, reports_path);
  if (!ref.ok() || !ref.value().accepted) {
    return Fail("reference audit: " + (ref.ok() ? ref.value().reason : ref.error()));
  }

  // --- Run 1: the verifier dies mid-pass-2. ---
  // Each request costs two loads: its payload, then its response for the output check.
  // Allowing three quarters of them leaves chunks journaled even when every worker had a
  // chunk in flight at the kill.
  StreamTraceSet probe;
  if (Result<uint32_t> r = probe.AppendFile(trace_path); !r.ok()) {
    return Fail(r.error());
  }
  KillSwitchLoader killer(&probe, /*allowed=*/3 * requests / 2);
  StreamAuditHooks hooks;
  hooks.loader = &killer;
  AuditSession first = AuditSession::Open(&w.app, options, w.initial);
  Result<AuditResult> killed = first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
  if (killed.ok()) {
    return Fail("run 1 should have been killed mid-audit");
  }
  if (ClassifyAuditOutcome(killed) != AuditOutcome::kIoError) {
    return Fail("a mid-audit kill must classify as an I/O error: " + killed.error());
  }
  // The error carries its location: the file and the offset of the failed load.
  std::printf("run 1: killed mid-pass-2 -> I/O error in %s at offset %llu (epoch "
              "unconsumed)\n",
              killed.status().file().c_str(),
              static_cast<unsigned long long>(killed.status().offset()));
  Result<bool> left = Env::Default()->FileExists(options.checkpoint_path);
  if (!left.ok() || !left.value()) {
    return Fail("checkpoint journal should survive the kill");
  }

  // --- Run 2: a fresh process resumes over the same files and checkpoint. ---
  AuditSession resumed = AuditSession::Open(&w.app, options, w.initial);
  Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
  if (!got.ok()) {
    return Fail("resume: " + got.error());
  }
  if (!got.value().accepted) {
    return Fail("resume should accept: " + got.value().reason);
  }
  if (got.value().stats.checkpoint_chunks_reused == 0) {
    return Fail("resume re-executed everything (no chunks reused)");
  }
  if (InitialStateFingerprint(got.value().final_state) !=
      InitialStateFingerprint(ref.value().final_state)) {
    return Fail("resumed end state diverges from the uninterrupted audit");
  }
  std::printf("run 2: ACCEPT, %llu chunk tasks replayed from the checkpoint, end state "
              "bit-identical to the uninterrupted audit\n",
              static_cast<unsigned long long>(got.value().stats.checkpoint_chunks_reused));

  Result<bool> spent = Env::Default()->FileExists(options.checkpoint_path);
  if (!spent.ok() || spent.value()) {
    return Fail("the verdict should have spent (removed) the checkpoint");
  }
  std::printf("verdict reached: checkpoint journal removed\n");
  return true;
}

}  // namespace

int main() {
  bool ok = RunDemo();
  std::printf("resumable_audit: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// Epoch audits over the wire format: the paper's periodic-audit deployment (§2, §4.5)
// end to end, across a process boundary simulated by files.
//
//   serve epoch 1 ─ Flush/Export ─┐
//   serve epoch 2 ─ Flush/Export ─┼─ spill files ──> fresh AuditSession: feed epochs in
//   serve epoch 3 ─ Flush/Export ─┘                  order, each accepted final state
//                                                    seeding the next epoch's audit
//
// The demo then tampers with epoch 2's spilled trace (a response body the client never
// saw) and shows: epoch 1 accepts, the tampered epoch 2 rejects with a deterministic
// reason, the pristine epoch 2 re-fed from the trusted collector accepts, and epoch 3
// accepts on top of it. Finally it cross-checks that the session's end state is
// bit-identical to one monolithic in-memory audit over the untampered concatenation.
//
// Build & run:  cmake -B build && cmake --build build && ./build/epoch_audit
// OROCHI_BENCH_SCALE scales the request count (CI smoke-runs with a small scale).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "examples/example_util.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/tamper.h"
#include "src/server/thread_server.h"
#include "src/workload/workloads.h"

using namespace orochi;
using demo::Fail;
using demo::Scale;

namespace {

constexpr int kEpochs = 3;

bool RunDemo() {
  const std::string dir = demo::ScratchDir("epoch_audit");
  if (dir.empty()) {
    return Fail("cannot create a scratch directory");
  }

  ForumConfig config;
  config.num_requests = static_cast<size_t>(900 * Scale());
  if (config.num_requests < kEpochs) {
    config.num_requests = kEpochs;
  }
  Workload w = MakeForumWorkload(config);

  // --- Collector/executor side: serve 3 epochs, spilling each to disk as it closes. ---
  const std::string state0 = dir + "/state0.bin";
  if (Status st = WriteInitialStateFile(state0, w.initial); !st.ok()) {
    return Fail(st.error());
  }
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  std::vector<std::string> trace_paths, reports_paths;
  RequestId rid = 1;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    size_t begin = w.items.size() * static_cast<size_t>(epoch) / kEpochs;
    size_t end = w.items.size() * static_cast<size_t>(epoch + 1) / kEpochs;
    {
      ThreadServer server(&core, &collector, /*num_workers=*/4);
      for (size_t i = begin; i < end; i++) {
        server.Submit(rid++, w.items[i].script, w.items[i].params);
      }
      server.Drain();
    }
    trace_paths.push_back(dir + "/trace_" + std::to_string(epoch + 1) + ".bin");
    reports_paths.push_back(dir + "/reports_" + std::to_string(epoch + 1) + ".bin");
    if (Status st = collector.Flush(trace_paths.back()); !st.ok()) {
      return Fail(st.error());
    }
    if (Status st = core.ExportReports(reports_paths.back()); !st.ok()) {
      return Fail(st.error());
    }
    std::printf("epoch %d: served %zu requests -> %s\n", epoch + 1, end - begin,
                trace_paths.back().c_str());
  }

  // --- An adversary rewrites a response in epoch 2's spilled trace. ---
  Result<Trace> epoch2 = ReadTraceFile(trace_paths[1]);
  if (!epoch2.ok()) {
    return Fail(epoch2.error());
  }
  RequestId victim = 0;
  for (const TraceEvent& e : epoch2.value().events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      victim = e.rid;
      break;
    }
  }
  if (!TamperResponseBody(&epoch2.value(), victim, "<html>forged response</html>")) {
    return Fail("tamper target rid not found");
  }
  const std::string tampered_path = dir + "/trace_2_tampered.bin";
  if (Status st = WriteTraceFile(tampered_path, epoch2.value()); !st.ok()) {
    return Fail(st.error());
  }

  // --- Verifier side: a fresh session audits the spill files epoch by epoch. ---
  AuditOptions options;
  Result<AuditSession> opened = AuditSession::OpenFromStateFile(&w.app, options, state0);
  if (!opened.ok()) {
    return Fail(opened.error());
  }
  AuditSession session = std::move(opened).value();

  Result<AuditResult> r1 = session.FeedEpochFilesStreamed(trace_paths[0], reports_paths[0]);
  if (!r1.ok() || !r1.value().accepted) {
    return Fail("epoch 1 should accept: " + (r1.ok() ? r1.value().reason : r1.error()));
  }
  std::printf("audit epoch 1: ACCEPT (%llu groups)\n",
              static_cast<unsigned long long>(r1.value().stats.num_groups));

  Result<AuditResult> r2bad = session.FeedEpochFilesStreamed(tampered_path, reports_paths[1]);
  if (!r2bad.ok()) {
    return Fail(r2bad.error());
  }
  if (r2bad.value().accepted) {
    return Fail("tampered epoch 2 should reject");
  }
  std::printf("audit epoch 2 (tampered): REJECT — %s\n", r2bad.value().reason.c_str());

  // A rejection leaves the session state untouched, so the pristine epoch 2 — re-fetched
  // from the trusted collector's spill — audits against the same state and accepts.
  Result<AuditResult> r2 = session.FeedEpochFilesStreamed(trace_paths[1], reports_paths[1]);
  if (!r2.ok() || !r2.value().accepted) {
    return Fail("pristine epoch 2 should accept: " +
                (r2.ok() ? r2.value().reason : r2.error()));
  }
  std::printf("audit epoch 2 (pristine): ACCEPT\n");

  Result<AuditResult> r3 = session.FeedEpochFilesStreamed(trace_paths[2], reports_paths[2]);
  if (!r3.ok() || !r3.value().accepted) {
    return Fail("epoch 3 should accept: " + (r3.ok() ? r3.value().reason : r3.error()));
  }
  std::printf("audit epoch 3: ACCEPT (%llu/%llu epochs accepted)\n",
              static_cast<unsigned long long>(session.epochs_accepted()),
              static_cast<unsigned long long>(session.epochs_fed()));

  // --- Cross-check: the epoch chain must equal one monolithic in-memory audit over the
  // untampered concatenation, bit for bit. ---
  Trace all_trace;
  Reports all_reports;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    Result<Trace> t = ReadTraceFile(trace_paths[static_cast<size_t>(epoch)]);
    Result<Reports> r = ReadReportsFile(reports_paths[static_cast<size_t>(epoch)]);
    if (!t.ok() || !r.ok()) {
      return Fail("re-reading spill files failed");
    }
    all_trace.events.insert(all_trace.events.end(), t.value().events.begin(),
                            t.value().events.end());
    if (Status st = AppendReports(&all_reports, r.value()); !st.ok()) {
      return Fail(st.error());
    }
  }
  Auditor auditor(&w.app, options);
  AuditResult combined = auditor.Audit(all_trace, all_reports, w.initial);
  if (!combined.accepted) {
    return Fail("concatenated audit should accept: " + combined.reason);
  }
  if (InitialStateFingerprint(combined.final_state) !=
      InitialStateFingerprint(session.state())) {
    return Fail("session end state diverges from the concatenated audit's final state");
  }
  std::printf("cross-check: session end state == concatenated audit final state\n");
  return true;
}

}  // namespace

int main() {
  bool ok = RunDemo();
  std::printf("epoch_audit: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// Epoch-based audit sessions: the verifier side of the paper's periodic-audit deployment
// (§2, §4.5). A trusted collector records traffic continuously and spills one trace +
// reports file pair per epoch; the verifier audits epochs in order, and each ACCEPTed
// epoch's end-of-period object state automatically seeds the next epoch's InitialState —
// the steady state the paper assumes between audit periods.
//
//   AuditSession session = AuditSession::Open(&app, options, initial);
//   AuditResult r1 = session.FeedEpoch(trace1, reports1);  // in-memory epoch
//   Result<AuditResult> r2 =
//       session.FeedEpochFilesStreamed(t2_path, r2_path);   // spilled epoch, paged in
//
// A REJECTed epoch does not advance the session state, so a corrected copy of the same
// epoch (e.g. re-fetched from the trusted collector after detecting tampering in transit)
// can be re-fed, after which later epochs verify normally.
//
// FeedEpoch owns the grouped SSCO audit engine (planning, the work-stealing parallel
// re-execution with each chunk's output checks, the final verdict scan); Auditor::Audit
// is a thin one-epoch wrapper over a fresh session, kept for compatibility.
#ifndef SRC_CORE_AUDIT_SESSION_H_
#define SRC_CORE_AUDIT_SESSION_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/auditor.h"

namespace orochi {

struct StreamAuditHooks;  // Test/bench instrumentation knobs (src/stream/stream_audit.h).
struct MergedShards;      // One logical epoch merged from shard files (src/stream/shard_merge.h).

// One collector shard's spill-file pair for an epoch. In the sharded deployment N
// collectors each record their front end's slice of the epoch's traffic; the verifier
// merge-joins the pairs back into one logical epoch (FeedShardedEpoch).
struct ShardEpochFiles {
  std::string trace_path;
  std::string reports_path;
};

class AuditSession {
 public:
  // `initial` is the state both sides agree on at the start of the first epoch.
  AuditSession(const Application* app, AuditOptions options, InitialState initial);

  static AuditSession Open(const Application* app, AuditOptions options,
                           InitialState initial) {
    return AuditSession(app, std::move(options), std::move(initial));
  }

  // Opens a session whose starting state is loaded from a wire-format snapshot file
  // (written by SaveState or WriteInitialStateFile).
  static Result<AuditSession> OpenFromStateFile(const Application* app, AuditOptions options,
                                                const std::string& state_path);

  // Audits one epoch against the session's current state. On ACCEPT the epoch's
  // final_state becomes the next epoch's initial state; on REJECT the session state is
  // unchanged. Accept/reject, reason, and final_state are deterministic across thread
  // counts (same guarantee as the single-shot audit).
  AuditResult FeedEpoch(const Trace& trace, const Reports& reports);

  // --- Spill-file audits (implemented in src/stream/stream_session.cc) ---
  //
  // The only way to audit wire-format spill files; in-RAM callers decode with
  // ReadTraceFile/ReadReportsFile and call FeedEpoch. A file-level error (missing,
  // corrupt, truncated, or a file that changes mid-audit) is an error Result that
  // consumes no epoch — distinct from a well-formed epoch whose audit REJECTs. Neither
  // file materializes in full: pass 1 streams both files record-by-record into payload
  // -free skeletons plus byte-offset indexes, Prepare pages op-log contents and pass 2
  // pages request payloads and op-log contents in on demand under
  // AuditOptions::max_resident_bytes (env OROCHI_AUDIT_BUDGET), and each retiring chunk
  // pages its response bodies in one at a time for its output checks. The verdict,
  // rejection reason, and final_state are bit-identical to FeedEpoch over the decoded
  // files at every thread count and budget — both paths drive the engine in
  // src/core/audit_plan.h.
  // `hooks` injects a counting loader/budget for tests and benches; nullptr = defaults.
  Result<AuditResult> FeedEpochFilesStreamed(const std::string& trace_path,
                                             const std::string& reports_path,
                                             const StreamAuditHooks* hooks = nullptr);

  // Streams spill-file pairs from many collector shards as ONE logical epoch: shards are
  // ordered by their trace files' shard ids (argument order breaks ties), traces
  // concatenate in that order, reports merge via AppendReports, and rid-disjointness
  // across shards is checked up front. A merge failure (duplicate shard id, shared rid,
  // corrupt file) is an error Result and consumes no epoch.
  Result<AuditResult> FeedShardedEpoch(const std::vector<ShardEpochFiles>& shards,
                                       const StreamAuditHooks* hooks = nullptr);
  // Reads the shard list from a wire-format manifest file (relative spill paths resolve
  // against the manifest's directory), verifying each trace file's stamped shard id
  // against the manifest's claim.
  Result<AuditResult> FeedShardedEpoch(const std::string& manifest_path,
                                       const StreamAuditHooks* hooks = nullptr);

  // Persists the current session state as a wire-format snapshot, so a future process can
  // resume the audit chain with OpenFromStateFile.
  Status SaveState(const std::string& path) const;

  // The state the next epoch will be audited against (the last accepted final_state, or
  // the opening state when nothing has been accepted yet).
  const InitialState& state() const { return state_; }

  uint64_t epochs_fed() const { return epochs_fed_; }
  uint64_t epochs_accepted() const { return epochs_accepted_; }

 private:
  // Marks `out` accepted with the context's final state and advances the session chain.
  void CommitAccepted(AuditContext* ctx, AuditResult* out);

  // Shared driver behind the streamed feeds (defined in src/stream/stream_session.cc):
  // audits the merged skeleton epoch with payloads paged in under the budget.
  Result<AuditResult> FeedMergedEpochStreamed(MergedShards&& merged,
                                              const StreamAuditHooks* hooks);

  const Application* app_;
  AuditOptions options_;
  InitialState state_;
  uint64_t epochs_fed_ = 0;
  uint64_t epochs_accepted_ = 0;
};

}  // namespace orochi

#endif  // SRC_CORE_AUDIT_SESSION_H_

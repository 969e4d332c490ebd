// The grouped SSCO audit engine shared by the in-memory and out-of-core paths: planning
// (walk the reported groups in order, validate them, cut them into chunk tasks) and
// parallel execution (chunks listed largest-first on a TaskPool, whose idle workers claim
// them in that order, with the deterministic smallest-position-failure-wins rejection
// rule).
//
// Both `AuditSession::FeedEpoch` and the streaming audit (src/stream/) drive exactly this
// code, which is what makes their verdict, rejection reason, and final_state bit-identical
// by construction: the only difference between the two paths is the AuditTaskGate an
// out-of-core caller installs to page a task's trace payloads in and out around its run
// and each response in and out around its output check.
#ifndef SRC_CORE_AUDIT_PLAN_H_
#define SRC_CORE_AUDIT_PLAN_H_

#include <string>
#include <vector>

#include "src/core/audit_context.h"

namespace orochi {

// One unit of parallel audit work: a chunk of a control-flow group. `order` is the chunk's
// position in the sequential group walk (group validation consumes a position too), which
// is the tiebreak that makes rejection deterministic across thread counts.
struct AuditTask {
  size_t order = 0;
  const Program* prog = nullptr;  // nullptr: the group targets a script the app lacks.
  std::vector<RequestId> rids;
  // Scheduling cost estimate: requests plus the total reported op-length of the chunk
  // (Σ 1 + M(rid)). Group length is unknown until executed; op count is the best static
  // proxy for how much simulate-and-check work the chunk carries, and weighting it beats
  // request count alone when scripts differ wildly in state-op density.
  uint64_t cost = 0;
  // True when this chunk shares a rid with an earlier task (possible only for adversarial
  // reports that list a rid in several groups). Such chunks run serially after the pool
  // joins, so two workers never touch the same rid's cursor or output slot concurrently.
  bool serial = false;
};

inline constexpr size_t kNoAuditFailure = SIZE_MAX;

struct AuditPlan {
  std::vector<AuditTask> tasks;
  // Planning-time validation failure (kNoAuditFailure when the walk completed): the walk
  // position at which sequential execution would have reported it. Planning stops there —
  // no later event can win the min-order race — but earlier tasks still run, since one of
  // them may fail at a strictly smaller position.
  size_t fail_order = kNoAuditFailure;
  std::string fail_reason;
};

// Walks reports.groups in order against a prepared context: validates each group (every
// rid traced, one script per group, no claimed ops for an unknown script), resolves the
// script, and cuts each group into max_group_size chunks. Mutates ctx stats (num_groups /
// groups_multi) exactly as the sequential walk would.
AuditPlan PlanAuditTasks(AuditContext* ctx, const Reports& reports, const Application* app,
                         const AuditOptions& options);

// Hook bracketing each task's execution, for out-of-core callers: Acquire runs on the
// worker thread immediately before the task's re-execution (page in the chunk's trace
// payloads, blocking on the memory budget), Release immediately after it retires (evict).
// Then, for each of the task's rids in turn, AcquireResponse pages rid's traced response
// in for its output check and ReleaseResponse evicts it again; the defaults do nothing,
// for callers whose trace is resident. Each pair of calls runs on one thread; tasks
// skipped because a strictly earlier failure already decided the verdict get no call.
class AuditTaskGate {
 public:
  virtual ~AuditTaskGate() = default;
  virtual Status Acquire(const AuditTask& task) = 0;
  virtual void Release(const AuditTask& task) = 0;
  // A failed AcquireResponse leaves nothing resident and gets no ReleaseResponse.
  virtual Status AcquireResponse(RequestId rid) {
    (void)rid;
    return Status::Ok();
  }
  virtual void ReleaseResponse(RequestId rid) { (void)rid; }
};

// What a task whose re-execution and output checks all passed contributed, keyed by its
// walk order. A checkpoint journal persists it so a resumed audit replays the
// contribution instead of re-executing and re-checking the chunk.
struct AuditTaskRecord {
  AuditStats stats;
};

// Sidecar journal of completed tasks (src/stream/checkpoint.h implements it over a wire
// checkpoint file). Only tasks whose every output matched are journaled — other chunks
// re-execute on resume and fail identically, which keeps the verdict bit-identical by
// construction. Both methods are called from worker threads; implementations must be
// thread-safe.
class AuditTaskJournal {
 public:
  virtual ~AuditTaskJournal() = default;
  // The record a prior run journaled for walk order `order`, or nullptr. The returned
  // pointer must stay valid until ExecuteAuditPlan returns.
  virtual const AuditTaskRecord* Lookup(size_t order) = 0;
  // Journals a task that just retired successfully. Failures here must be swallowed (a
  // lost journal entry only costs re-execution on resume, never correctness).
  virtual void Record(const AuditTask& task, const AuditTaskRecord& record) = 0;
};

struct AuditExecOutcome {
  size_t fail_order = kNoAuditFailure;  // kNoAuditFailure: every task succeeded.
  std::string fail_reason;
  // Not OK when the winning failure came from the gate (an I/O problem paging the chunk
  // in), which callers surface as a file-level error rather than an audit REJECT.
  Status gate_error;
};

// Runs the plan's tasks: parallel chunks largest-first on a TaskPool of
// ResolveAuditThreads(options) workers (greedy LPT list scheduling), then the serial
// chunks in order. As each chunk retires, its worker checks every output against the
// traced response (AuditContext::CheckOutput); the caller's CompareOutputs scan turns
// those verdicts into the output verdict. Per-task stats merge into ctx->stats() in walk
// order, so merged statistics are schedule-independent. The returned failure is the
// plan's failure, a task failure, or a gate Acquire failure, whichever claims the
// smallest walk position. A journaled task replays its record (stats,
// checkpoint_chunks_reused incremented, its rids marked matched) without touching the
// gate.
AuditExecOutcome ExecuteAuditPlan(AuditContext* ctx, const Application* app,
                                  const AuditOptions& options, const AuditPlan& plan,
                                  AuditTaskGate* gate = nullptr,
                                  AuditTaskJournal* journal = nullptr);

}  // namespace orochi

#endif  // SRC_CORE_AUDIT_PLAN_H_

#include "src/core/audit_plan.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "src/common/task_pool.h"
#include "src/core/auditor.h"
#include "src/core/reexec.h"

namespace orochi {

AuditPlan PlanAuditTasks(AuditContext* ctx, const Reports& reports, const Application* app,
                         const AuditOptions& options) {
  AuditPlan plan;
  size_t order = 0;
  std::unordered_set<RequestId> claimed;
  for (const auto& [tag, rids] : reports.groups) {
    (void)tag;
    if (rids.empty()) {
      continue;
    }
    ctx->stats().num_groups++;
    if (rids.size() > 1) {
      ctx->stats().groups_multi++;
    }
    const size_t group_order = order++;
    // All requests in a group must exist and target the same script.
    const TraceEvent* first = ctx->RequestEvent(rids[0]);
    if (first == nullptr) {
      plan.fail_order = group_order;
      plan.fail_reason = "group contains rid " + std::to_string(rids[0]) + " not in the trace";
      break;
    }
    bool group_ok = true;
    for (RequestId rid : rids) {
      const TraceEvent* req = ctx->RequestEvent(rid);
      if (req == nullptr || req->script != first->script) {
        plan.fail_order = group_order;
        plan.fail_reason = "group mixes scripts or names an untraced rid";
        group_ok = false;
        break;
      }
    }
    if (!group_ok) {
      break;
    }
    // An unknown script's requests were answered with kNoSuchScriptBody and issued no
    // operation. Their chunks still run as tasks (prog == nullptr), so their responses
    // reach the same output check as everyone else's.
    const Program* prog = app->GetScript(first->script);
    if (prog == nullptr) {
      for (RequestId rid : rids) {
        if (ctx->OpCount(rid) != 0) {
          plan.fail_order = group_order;
          plan.fail_reason = "rid " + std::to_string(rid) +
                             " targets an unknown script but claims operations";
          group_ok = false;
          break;
        }
      }
      if (!group_ok) {
        break;
      }
    }
    for (size_t start = 0; start < rids.size(); start += options.max_group_size) {
      size_t end = std::min(rids.size(), start + options.max_group_size);
      AuditTask task;
      task.order = order++;
      task.prog = prog;
      task.rids.assign(rids.begin() + static_cast<ptrdiff_t>(start),
                       rids.begin() + static_cast<ptrdiff_t>(end));
      for (RequestId rid : task.rids) {
        task.cost += 1 + ctx->OpCount(rid);
        task.serial = task.serial || !claimed.insert(rid).second;
      }
      plan.tasks.push_back(std::move(task));
    }
  }
  return plan;
}

namespace {

// Indexes of the plan's non-serial tasks in the order the pool's workers claim them, one
// at a time as each frees up. Largest chunk first (cost = requests + total reported
// op-length; see AuditTask::cost) makes that greedy LPT list scheduling, which keeps the
// tail short: the last chunks to start are the smallest. Scheduling order never affects
// the verdict.
std::vector<size_t> PoolDispatchIndexes(const std::vector<AuditTask>& tasks,
                                        size_t num_threads) {
  std::vector<size_t> pool;
  for (size_t i = 0; i < tasks.size(); i++) {
    if (!tasks[i].serial) {
      pool.push_back(i);
    }
  }
  if (num_threads > 1 && pool.size() > 1) {
    std::stable_sort(pool.begin(), pool.end(),
                     [&](size_t a, size_t b) { return tasks[a].cost > tasks[b].cost; });
  }
  return pool;
}

// Checks one retired rid's output against its traced response, paging the response in
// through the gate (when there is one) around the check. True on a match.
bool CheckRetiredOutput(AuditContext* ctx, AuditTaskGate* gate, RequestId rid,
                        const std::string& output) {
  if (gate == nullptr) {
    return ctx->CheckOutput(rid, output);
  }
  if (Status st = gate->AcquireResponse(rid); !st.ok()) {
    ctx->MarkResponseLoadFailed(rid, std::move(st));
    return false;
  }
  const bool matched = ctx->CheckOutput(rid, output);
  gate->ReleaseResponse(rid);
  return matched;
}

}  // namespace

AuditExecOutcome ExecuteAuditPlan(AuditContext* ctx, const Application* app,
                                  const AuditOptions& options, const AuditPlan& plan,
                                  AuditTaskGate* gate, AuditTaskJournal* journal) {
  Result<size_t> threads = ResolveAuditThreads(options);
  if (!threads.ok()) {
    // A malformed OROCHI_AUDIT_THREADS is a configuration error, not an audit verdict;
    // gate_error routes it out of the verdict path (callers pre-validate, so this is a
    // backstop for direct engine users).
    AuditExecOutcome out;
    out.fail_order = 0;
    out.fail_reason = threads.error();
    out.gate_error = threads.status();
    return out;
  }
  const std::vector<AuditTask>& tasks = plan.tasks;
  // Each task accumulates into its own stats block; blocks merge in walk order afterwards,
  // so merged stats (group_stats in particular) are independent of scheduling.
  std::vector<AuditStats> task_stats(tasks.size());
  std::vector<std::string> task_error(tasks.size());
  std::vector<Status> task_gate_error(tasks.size());
  std::atomic<size_t> first_fail{plan.fail_order};
  {
    auto record_failure = [&](size_t task_order) {
      size_t cur = first_fail.load(std::memory_order_relaxed);
      while (task_order < cur &&
             !first_fail.compare_exchange_weak(cur, task_order, std::memory_order_relaxed)) {
      }
    };
    auto run_task = [&](size_t i) {
      const AuditTask& task = tasks[i];
      if (task.order > first_fail.load(std::memory_order_relaxed)) {
        return;  // A strictly earlier failure already decided the verdict.
      }
      if (journal != nullptr) {
        if (const AuditTaskRecord* rec = journal->Lookup(task.order); rec != nullptr) {
          // Replay the journaled contribution: no gate (nothing is paged in), no
          // re-execution and no checks — a task is journaled only once every output
          // matched, and the epoch fingerprint binds every response's CRC. Journaled
          // stats carry no phases, so the replay span is the chunk's only time.
          task_stats[i] = rec->stats;
          task_stats[i].checkpoint_chunks_reused += 1;
          obs::TraceSpan span(&task_stats[i].phases, obs::Phase::kCheckpointReplay);
          for (RequestId rid : task.rids) {
            ctx->MarkOutputMatched(rid);
          }
          return;
        }
      }
      if (gate != nullptr) {
        // Budget waits + the chunk's preads.
        obs::TraceSpan span(&task_stats[i].phases, obs::Phase::kPass2IoWait);
        if (Status st = gate->Acquire(task); !st.ok()) {
          task_gate_error[i] = st;
          record_failure(task.order);
          return;
        }
      }
      AuditWorkerState ws(&task_stats[i]);
      Result<std::vector<std::string>> outputs = [&] {
        // The chunk's SELECTs record db_query into the same block; the span subtracts
        // them, so pass2_execute is the re-execution alone (Figure 9's PHP).
        obs::TraceSpan span(&task_stats[i].phases, obs::Phase::kPass2Execute);
        return RunGroupChunk(app, options.interp, ctx, task.prog, task.rids, &ws);
      }();
      if (gate != nullptr) {
        gate->Release(task);
      }
      if (!outputs.ok()) {
        task_error[i] = outputs.error();
        record_failure(task.order);
        return;
      }
      // One response resident at a time, after the chunk's own bytes left the budget.
      bool matched = true;
      {
        obs::TraceSpan span(&task_stats[i].phases, obs::Phase::kCompare);
        for (size_t j = 0; j < task.rids.size(); j++) {
          matched &= CheckRetiredOutput(ctx, gate, task.rids[j], outputs.value()[j]);
        }
      }
      if (matched && journal != nullptr) {
        journal->Record(task, AuditTaskRecord{task_stats[i]});
      }
    };

    const size_t num_threads = threads.value();
    std::vector<size_t> pool_tasks = PoolDispatchIndexes(tasks, num_threads);
    std::vector<size_t> serial_tasks;
    for (size_t i = 0; i < tasks.size(); i++) {
      if (tasks[i].serial) {
        serial_tasks.push_back(i);
      }
    }
    TaskPool(std::min(num_threads, pool_tasks.size())).Run(pool_tasks, run_task);
    for (size_t i : serial_tasks) {
      run_task(i);
    }
  }
  for (const AuditStats& s : task_stats) {
    ctx->stats().MergeFrom(s);
  }

  AuditExecOutcome out;
  out.fail_order = first_fail.load(std::memory_order_relaxed);
  if (out.fail_order == kNoAuditFailure) {
    return out;
  }
  out.fail_reason = plan.fail_reason;
  for (size_t i = 0; i < tasks.size(); i++) {
    if (tasks[i].order == out.fail_order) {
      out.fail_reason = task_error[i];
      out.gate_error = task_gate_error[i];
      break;
    }
  }
  return out;
}

}  // namespace orochi

#include "src/core/ooo_audit.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "src/common/rng.h"

namespace orochi {

OpSchedule SequentialSchedule(const Trace& trace,
                              const std::unordered_map<RequestId, uint32_t>& op_counts) {
  OpSchedule s;
  for (const TraceEvent& e : trace.events) {
    if (e.kind != TraceEvent::Kind::kRequest) {
      continue;
    }
    auto it = op_counts.find(e.rid);
    uint32_t m = it == op_counts.end() ? 0 : it->second;
    s.push_back({e.rid, 0});
    for (uint32_t k = 1; k <= m; k++) {
      s.push_back({e.rid, k});
    }
    s.push_back({e.rid, kOutputStep});
  }
  return s;
}

OpSchedule TopologicalSchedule(const ProcessedReports& processed) {
  OpSchedule s;
  for (uint32_t node : processed.graph.TopologicalOrder()) {
    EventGraph::NodeLabel label = processed.graph.Label(node);
    s.push_back({label.rid, label.opnum == EventGraph::kInfinityOp ? kOutputStep : label.opnum});
  }
  return s;
}

OpSchedule RandomWellFormedSchedule(const Trace& trace,
                                    const std::unordered_map<RequestId, uint32_t>& op_counts,
                                    uint64_t seed) {
  // Interleave per-request sequences by repeatedly picking a random request that still
  // has pending steps.
  struct Cursor {
    RequestId rid;
    uint32_t next = 0;  // 0..M then kOutputStep.
    uint32_t m = 0;
    bool done = false;
  };
  std::vector<Cursor> cursors;
  for (const TraceEvent& e : trace.events) {
    if (e.kind != TraceEvent::Kind::kRequest) {
      continue;
    }
    auto it = op_counts.find(e.rid);
    cursors.push_back({e.rid, 0, it == op_counts.end() ? 0 : it->second, false});
  }
  Rng rng(seed);
  OpSchedule s;
  size_t remaining = cursors.size();
  while (remaining > 0) {
    size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(cursors.size()) - 1));
    Cursor& c = cursors[pick];
    if (c.done) {
      continue;
    }
    if (c.next <= c.m) {
      s.push_back({c.rid, c.next});
      c.next++;
    } else {
      s.push_back({c.rid, kOutputStep});
      c.done = true;
      remaining--;
    }
  }
  return s;
}

AuditResult OOOAudit(const Application* app, const Trace& trace, const Reports& reports,
                     const InitialState& initial, const OpSchedule& schedule,
                     AuditOptions options) {
  AuditResult out;
  AuditContext ctx(&trace, &reports, app, &initial, options);
  if (Status st = ctx.Prepare(); !st.ok()) {
    out.reason = st.error();
    out.stats = ctx.stats();
    return out;
  }

  struct Thread {
    std::unique_ptr<Interpreter> interp;
    uint32_t ops_done = 0;
    bool finished = false;
    bool pending_op = false;        // Interpreter stopped at a state op awaiting SimOp.
    StateOpRequest held_op;         // The op it stopped at.
    std::string body;
    bool missing_script = false;
  };
  std::unordered_map<RequestId, Thread> threads;

  auto reject = [&](const std::string& reason) {
    AuditResult r;
    r.reason = reason;
    r.stats = ctx.stats();
    return r;
  };

  // Runs a thread until its next state op (held, not yet simulated), output, or trap.
  // Nondet calls are serviced inline.
  auto run_until_event = [&](RequestId rid, Thread* t) -> Status {
    while (true) {
      StepResult step = t->interp->Run();
      switch (step.kind) {
        case StepResult::Kind::kFinished:
          t->finished = true;
          t->body = t->interp->output();
          return Status::Ok();
        case StepResult::Kind::kError:
          t->finished = true;
          t->body = t->interp->output() + "\n[error] " + step.error;
          return Status::Ok();
        case StepResult::Kind::kStateOp:
          t->pending_op = true;
          t->held_op = std::move(step.op);
          return Status::Ok();
        case StepResult::Kind::kNondet: {
          Result<Value> v = ctx.NextNondet(rid, step.nondet);
          if (!v.ok()) {
            return v.status();
          }
          t->interp->ProvideValue(std::move(v).value());
          break;
        }
      }
    }
  };

  {
    // A rejection returns from inside this span, so its stats miss the partial pass.
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kPass2Execute);
    for (const OpScheduleEntry& entry : schedule) {
      if (entry.opnum == 0) {
        // Read inputs, allocate program structures (Figure 13 lines 6-8).
        const TraceEvent* req = ctx.RequestEvent(entry.rid);
        if (req == nullptr) {
          return reject("ooo: schedule names rid " + std::to_string(entry.rid) +
                        " not in the trace");
        }
        Thread t;
        const Program* prog = app->GetScript(req->script);
        if (prog == nullptr) {
          if (ctx.OpCount(entry.rid) != 0) {
            return reject("ooo: unknown script but M(rid) > 0");
          }
          t.missing_script = true;
          t.finished = true;
          t.body = kNoSuchScriptBody;
        } else {
          ctx.ResetNondet(entry.rid);
          t.interp = std::make_unique<Interpreter>(prog, &req->params, options.interp);
        }
        threads[entry.rid] = std::move(t);
        continue;
      }

      auto it = threads.find(entry.rid);
      if (it == threads.end()) {
        return reject("ooo: schedule uses rid " + std::to_string(entry.rid) +
                      " before its init step");
      }
      Thread& t = it->second;

      if (entry.opnum == kOutputStep) {
        // Run to output; reaching another state op here means the request issues more ops
        // than scheduled (Figure 13 lines 10-14).
        if (!t.finished) {
          if (t.pending_op) {
            return reject("ooo: output step reached with an unsimulated op");
          }
          if (Status st = run_until_event(entry.rid, &t); !st.ok()) {
            return reject(st.error());
          }
          if (!t.finished) {
            return reject("ooo: request issued a state op where output was expected");
          }
        }
        if (!t.missing_script) {
          if (t.ops_done != ctx.OpCount(entry.rid)) {
            return reject("ooo: rid " + std::to_string(entry.rid) + " issued " +
                          std::to_string(t.ops_done) + " ops but M(rid) = " +
                          std::to_string(ctx.OpCount(entry.rid)));
          }
          if (Status st = ctx.CheckNondetConsumed(entry.rid); !st.ok()) {
            return reject(st.error());
          }
          ctx.stats().total_instructions += t.interp->instructions_executed();
        }
        ctx.CheckOutput(entry.rid, t.body);
        continue;
      }

      // Ordinary op step: run to the next state op and simulate it (Figure 13 lines 16-23).
      if (t.finished) {
        return reject("ooo: request finished before scheduled op " +
                      std::to_string(entry.opnum));
      }
      if (!t.pending_op) {
        if (Status st = run_until_event(entry.rid, &t); !st.ok()) {
          return reject(st.error());
        }
      }
      if (t.finished || !t.pending_op) {
        return reject("ooo: request produced output where a state op was expected");
      }
      t.ops_done++;
      if (t.ops_done != entry.opnum) {
        return reject("ooo: schedule op numbering does not match execution");
      }
      Result<OpLocation> loc = ctx.CheckOp(entry.rid, t.ops_done, t.held_op);
      if (!loc.ok()) {
        return reject(loc.error());
      }
      Result<Value> v = ctx.SimOp(t.held_op, loc.value());
      if (!v.ok()) {
        return reject(v.error());
      }
      t.pending_op = false;
      t.interp->ProvideValue(std::move(v).value());
    }
  }

  if (Status st = ctx.CompareOutputs(); !st.ok()) {
    out.reason = st.error();
    out.stats = ctx.stats();
    return out;
  }
  out.accepted = true;
  out.final_state = ctx.ExtractFinalState();
  out.stats = ctx.stats();
  return out;
}

}  // namespace orochi

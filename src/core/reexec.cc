#include "src/core/reexec.h"

#include <string>
#include <utility>

#include "src/lang/acc_interpreter.h"

namespace orochi {

Result<std::string> ReplaySingleRequest(const Application* app,
                                        const InterpreterOptions& interp_options,
                                        AuditContext* ctx, RequestId rid,
                                        AuditWorkerState* ws) {
  const TraceEvent* req = ctx->RequestEvent(rid);
  if (req == nullptr) {
    return Status::Error("re-exec: rid " + std::to_string(rid) + " is not in the trace");
  }
  const Program* prog = app->GetScript(req->script);
  if (prog == nullptr) {
    if (ctx->OpCount(rid) != 0) {
      return Status::Error("re-exec: rid " + std::to_string(rid) +
                           " targets an unknown script but claims operations");
    }
    return std::string(kNoSuchScriptBody);
  }
  ctx->ResetNondet(rid);
  Interpreter interp(prog, &req->params, interp_options);
  uint32_t opnum = 0;
  std::string body;
  while (true) {
    StepResult step = interp.Run();
    if (step.kind == StepResult::Kind::kFinished) {
      body = interp.TakeOutput();
      break;
    }
    if (step.kind == StepResult::Kind::kError) {
      body = interp.TakeOutput() + "\n[error] " + step.error;
      break;
    }
    if (step.kind == StepResult::Kind::kStateOp) {
      opnum++;
      Result<OpLocation> loc = ctx->CheckOp(rid, opnum, step.op, ws);
      if (!loc.ok()) {
        return loc.status();
      }
      Result<Value> v = ctx->SimOp(step.op, loc.value(), ws);
      if (!v.ok()) {
        return v.status();
      }
      interp.ProvideValue(std::move(v).value());
      continue;
    }
    Result<Value> v = ctx->NextNondet(rid, step.nondet);
    if (!v.ok()) {
      return v.status();
    }
    interp.ProvideValue(std::move(v).value());
  }
  if (opnum != ctx->OpCount(rid)) {
    return Status::Error("re-exec: rid " + std::to_string(rid) + " issued " +
                         std::to_string(opnum) + " ops but M(rid) = " +
                         std::to_string(ctx->OpCount(rid)));
  }
  if (Status st = ctx->CheckNondetConsumed(rid); !st.ok()) {
    return st;
  }
  ws->stats->total_instructions += interp.instructions_executed();
  return body;
}

Result<std::vector<std::string>> RunGroupChunk(const Application* app,
                                               const InterpreterOptions& interp_options,
                                               AuditContext* ctx, const Program* prog,
                                               const std::vector<RequestId>& rids,
                                               AuditWorkerState* ws) {
  const size_t n = rids.size();
  if (prog == nullptr) {
    return std::vector<std::string>(n, std::string(kNoSuchScriptBody));
  }
  std::vector<const RequestParams*> params(n);
  for (size_t j = 0; j < n; j++) {
    const TraceEvent* req = ctx->RequestEvent(rids[j]);
    if (req == nullptr) {
      return Status::Error("group re-exec: rid " + std::to_string(rids[j]) +
                           " is not in the trace");
    }
    params[j] = &req->params;
    ctx->ResetNondet(rids[j]);
  }

  AccInterpreter acc(prog, std::move(params), interp_options);
  uint32_t opnum = 0;
  while (true) {
    AccStepResult step = acc.Run();
    switch (step.kind) {
      case AccStepResult::Kind::kFinished:
      case AccStepResult::Kind::kError: {
        // Figure 12 step (3): each request must have issued exactly M(rid) operations.
        // (A uniform trap is a deterministic end of the group; its op-count discipline is
        // the same.)
        for (size_t j = 0; j < n; j++) {
          if (opnum != ctx->OpCount(rids[j])) {
            return Status::Error("group re-exec: rid " + std::to_string(rids[j]) +
                                 " issued " + std::to_string(opnum) + " ops but M(rid) = " +
                                 std::to_string(ctx->OpCount(rids[j])));
          }
          if (Status st = ctx->CheckNondetConsumed(rids[j]); !st.ok()) {
            return st;
          }
        }
        std::vector<std::string> outputs = acc.TakeOutputs();
        if (step.kind == AccStepResult::Kind::kError) {
          for (std::string& body : outputs) {
            body += "\n[error] " + step.error;
          }
        }
        ws->stats->total_instructions += acc.total_instructions();
        ws->stats->multivalent_instructions += acc.multivalent_instructions();
        ws->stats->component_steps += acc.multivalent_instructions() * n;
        uint64_t len = acc.total_instructions();
        ws->stats->group_stats.push_back(
            {prog->script_name, static_cast<uint32_t>(n), len,
             len == 0 ? 1.0
                      : 1.0 - static_cast<double>(acc.multivalent_instructions()) /
                                  static_cast<double>(len)});
        return outputs;
      }
      case AccStepResult::Kind::kDiverged:
        return Status::Error("group re-exec: control-flow grouping is wrong: " + step.error);
      case AccStepResult::Kind::kFallback: {
        // Not representable in lockstep (§4.7): re-execute the chunk's requests
        // individually. Re-execution is idempotent, so ops already checked recheck fine.
        ws->stats->fallback_groups++;
        std::vector<std::string> outputs;
        outputs.reserve(n);
        for (RequestId rid : rids) {
          Result<std::string> out =
              ReplaySingleRequest(app, interp_options, ctx, rid, ws);
          if (!out.ok()) {
            return out.status();
          }
          outputs.push_back(std::move(out).value());
        }
        return outputs;
      }
      case AccStepResult::Kind::kStateOp: {
        opnum++;
        std::vector<Value> results(n);
        for (size_t j = 0; j < n; j++) {
          Result<OpLocation> loc = ctx->CheckOp(rids[j], opnum, step.ops[j], ws);
          if (!loc.ok()) {
            return loc.status();
          }
          Result<Value> v = ctx->SimOp(step.ops[j], loc.value(), ws);
          if (!v.ok()) {
            return v.status();
          }
          results[j] = std::move(v).value();
        }
        acc.ProvideValues(std::move(results));
        break;
      }
      case AccStepResult::Kind::kNondet: {
        std::vector<Value> results(n);
        for (size_t j = 0; j < n; j++) {
          Result<Value> v = ctx->NextNondet(rids[j], step.nondets[j]);
          if (!v.ok()) {
            return v.status();
          }
          results[j] = std::move(v).value();
        }
        acc.ProvideValues(std::move(results));
        break;
      }
    }
  }
}

}  // namespace orochi

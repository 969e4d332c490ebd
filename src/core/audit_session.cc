#include "src/core/audit_session.h"

#include <utility>

#include "src/core/audit_plan.h"
#include "src/objects/wire_format.h"

namespace orochi {

AuditSession::AuditSession(const Application* app, AuditOptions options, InitialState initial)
    : app_(app), options_(std::move(options)), state_(std::move(initial)) {}

Result<AuditSession> AuditSession::OpenFromStateFile(const Application* app,
                                                     AuditOptions options,
                                                     const std::string& state_path) {
  Result<InitialState> state = ReadInitialStateFile(state_path, options.io_env);
  if (!state.ok()) {
    return state.status();
  }
  return AuditSession(app, std::move(options), std::move(state).value());
}

Status AuditSession::SaveState(const std::string& path) const {
  return WriteInitialStateFile(path, state_, options_.io_env);
}

void AuditSession::CommitAccepted(AuditContext* ctx, AuditResult* out) {
  out->accepted = true;
  out->final_state = ctx->ExtractFinalState();
  out->stats = ctx->stats();
  epochs_accepted_++;
  state_ = out->final_state;  // The accepted epoch seeds the next epoch's audit (§4.5).
}

// The grouped SSCO audit engine (paper Figures 3 and 12): balanced-trace check,
// consistent-ordering verification and versioned-storage builds (AuditContext::Prepare),
// grouped SIMD-on-demand re-execution on a TaskPool, each chunk's outputs
// checked against the trace as it retires, then the verdict scan over those checks.
// Planning and execution live in src/core/audit_plan.{h,cc}, shared with the out-of-core
// streaming path so both are deterministic in lockstep. On ACCEPT, final_state chains
// into the next FeedEpoch call.
AuditResult AuditSession::FeedEpoch(const Trace& trace, const Reports& reports) {
  AuditResult out;
  // FeedEpoch has no error channel, so a malformed OROCHI_AUDIT_THREADS reports as a
  // rejection whose reason names the config problem; the epoch is not consumed.
  if (Result<size_t> threads = ResolveAuditThreads(options_); !threads.ok()) {
    out.reason = threads.error();
    return out;
  }
  epochs_fed_++;
  AuditContext ctx(&trace, &reports, app_, &state_, options_);
  auto reject = [&](std::string reason) {
    out.reason = std::move(reason);
    out.stats = ctx.stats();
    return out;
  };
  if (Status prepared = ctx.Prepare(); !prepared.ok()) {
    return reject(prepared.error());
  }

  AuditPlan plan = PlanAuditTasks(&ctx, reports, app_, options_);
  AuditExecOutcome exec = ExecuteAuditPlan(&ctx, app_, options_, plan);
  if (exec.fail_order != kNoAuditFailure) {
    return reject(exec.fail_reason);
  }

  Status compared;
  {
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kCompare);
    compared = ctx.CompareOutputs();
  }
  if (!compared.ok()) {
    return reject(compared.error());
  }
  CommitAccepted(&ctx, &out);
  return out;
}

}  // namespace orochi

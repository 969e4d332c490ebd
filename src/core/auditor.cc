#include "src/core/auditor.h"

#include <cstdlib>
#include <thread>
#include <utility>

#include "src/common/strings.h"
#include "src/core/audit_session.h"
#include "src/core/reexec.h"

namespace orochi {

AuditOutcome ClassifyAuditOutcome(const Result<AuditResult>& result) {
  switch (result.status().code()) {
    case StatusCode::kOk:
      return result.value().accepted ? AuditOutcome::kAccepted : AuditOutcome::kRejected;
    case StatusCode::kConfig:
      return AuditOutcome::kConfigError;
    case StatusCode::kError:
    case StatusCode::kTransient:
    case StatusCode::kCorruption:
      break;
  }
  return AuditOutcome::kIoError;
}

Result<size_t> ResolveAuditThreads(const AuditOptions& options) {
  if (options.num_threads > 0) {
    return options.num_threads;
  }
  if (const char* env = std::getenv("OROCHI_AUDIT_THREADS")) {
    Result<uint64_t> v = ParseUint64(env);
    if (!v.ok()) {
      // A malformed thread count must not silently change how the audit runs: it is a
      // config error the caller reports before consuming an epoch.
      return Status::Error(StatusCode::kConfig, "config: OROCHI_AUDIT_THREADS='" +
                                                    std::string(env) +
                                                    "' is not a valid thread count (" +
                                                    v.error() + ")");
    }
    if (v.value() > 0) {
      return static_cast<size_t>(v.value());
    }
    // An explicit 0 means auto, exactly like AuditOptions::num_threads == 0.
  }
  unsigned hc = std::thread::hardware_concurrency();
  return static_cast<size_t>(hc == 0 ? 1 : hc);
}

Auditor::Auditor(const Application* app, AuditOptions options)
    : app_(app), options_(std::move(options)) {}

AuditResult Auditor::Audit(const Trace& trace, const Reports& reports,
                           const InitialState& initial) {
  AuditSession session(app_, options_, initial);
  return session.FeedEpoch(trace, reports);
}

AuditResult Auditor::AuditSequential(const Trace& trace, const Reports& reports,
                                     const InitialState& initial) {
  AuditResult out;
  AuditOptions opts = options_;
  opts.enable_query_dedup = false;  // The baseline reissues every read (§5.2).
  AuditContext ctx(&trace, &reports, app_, &initial, opts);
  auto reject = [&](std::string reason) {
    out.reason = std::move(reason);
    out.stats = ctx.stats();
    return out;
  };
  if (Status st = ctx.Prepare(); !st.ok()) {
    return reject(st.error());
  }
  Status replayed;
  {
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kPass2Execute);
    AuditWorkerState ws(&ctx.stats());
    for (const TraceEvent& e : trace.events) {
      if (e.kind != TraceEvent::Kind::kRequest) {
        continue;
      }
      Result<std::string> output =
          ReplaySingleRequest(app_, opts.interp, &ctx, e.rid, &ws);
      if (!output.ok()) {
        replayed = output.status();
        break;
      }
      ctx.CheckOutput(e.rid, output.value());  // Timed as part of the replay.
    }
  }
  if (!replayed.ok()) {
    return reject(replayed.error());
  }
  Status compared;
  {
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kCompare);
    compared = ctx.CompareOutputs();
  }
  if (!compared.ok()) {
    return reject(compared.error());
  }
  out.accepted = true;
  out.final_state = ctx.ExtractFinalState();
  out.stats = ctx.stats();
  return out;
}

}  // namespace orochi

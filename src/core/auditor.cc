#include "src/core/auditor.h"

#include <cstdlib>
#include <thread>
#include <utility>

#include "src/common/strings.h"
#include "src/core/audit_session.h"
#include "src/core/reexec.h"

namespace orochi {

AuditOutcome ClassifyAuditOutcome(const Result<AuditResult>& result) {
  if (result.ok()) {
    return result.value().accepted ? AuditOutcome::kAccepted : AuditOutcome::kRejected;
  }
  const std::string& e = result.error();
  if (e.compare(0, 8, "config: ") == 0 ||
      e.find("OROCHI_AUDIT_THREADS") != std::string::npos ||
      e.find("OROCHI_AUDIT_BUDGET") != std::string::npos) {
    return AuditOutcome::kConfigError;
  }
  return AuditOutcome::kIoError;
}

AuditIoError ParseAuditIoError(const std::string& error) {
  AuditIoError out;
  out.detail = error;
  // Error messages end "... in <path>" and, when localizable, carry
  // "at offset <N>" before it. Parse from the back so payload text containing " in "
  // cannot confuse the extraction of the trailing path.
  size_t in_pos = error.rfind(" in ");
  if (in_pos != std::string::npos && in_pos + 4 < error.size()) {
    out.file = error.substr(in_pos + 4);
  }
  size_t off_pos = error.rfind(" at offset ");
  if (off_pos != std::string::npos) {
    size_t start = off_pos + 11;
    uint64_t v = 0;
    bool any = false;
    while (start < error.size() && error[start] >= '0' && error[start] <= '9') {
      v = v * 10 + static_cast<uint64_t>(error[start] - '0');
      start++;
      any = true;
    }
    if (any) {
      out.offset = v;
    }
  }
  return out;
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
      return Result<size_t>::Error("config: OROCHI_AUDIT_THREADS='" + std::string(env) +
                                   "' is not a valid thread count (" + v.error() + ")");
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
      replayed = ReplaySingleRequest(app_, opts.interp, &ctx, e.rid, &ws);
      if (!replayed.ok()) {
        break;
      }
    }
  }
  if (!replayed.ok()) {
    return reject(replayed.error());
  }
  Status compared;
  {
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kPass3Compare);
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

// Single-shot audit entry points. The grouped SSCO audit engine (paper Figures 3 and 12)
// lives in AuditSession::FeedEpoch (src/core/audit_session.h), which chains accepted
// epochs' final states; Auditor::Audit is a thin one-epoch wrapper over a fresh session,
// kept for compatibility with pre-epoch callers.
//
// AuditSequential() re-executes each request individually in trace order with the same
// checks — no grouping, no query dedup. It corresponds to the paper's "simple
// re-execution" comparator and is the Figure 8/9 baseline.
#ifndef SRC_CORE_AUDITOR_H_
#define SRC_CORE_AUDITOR_H_

#include <string>

#include "src/core/audit_context.h"

namespace orochi {

struct AuditResult {
  bool accepted = false;
  std::string reason;  // Set on rejection.
  AuditStats stats;  // stats.phases: this epoch's phase decomposition (Figure 9).
  // Valid only when accepted: the end-of-period object state, which seeds the next
  // audit's InitialState (§4.5). AuditSession does this chaining automatically.
  InitialState final_state;
};

// What one Feed* call amounted to, separating the three outcomes an operator reacts to
// differently: a verdict (accept/reject — the epoch was consumed), an I/O failure
// (corrupt, truncated, or unreadable spill file — the epoch is unconsumed and the audit
// can be retried once the file is restored; NEVER evidence of server misbehavior), and a
// configuration error (bad OROCHI_AUDIT_THREADS / OROCHI_AUDIT_BUDGET or options — fix
// the verifier, not the files).
enum class AuditOutcome {
  kAccepted,
  kRejected,
  kIoError,
  kConfigError,
};

// Classifies a Feed* result into the taxonomy above by its StatusCode: kConfig is
// kConfigError, every other error code (kError, kTransient, kCorruption) is kIoError; ok
// Results map to kAccepted/kRejected from the verdict. An I/O error's Status carries its
// {file, offset} location when the failure is localizable (status().file()/offset()).
AuditOutcome ClassifyAuditOutcome(const Result<AuditResult>& result);

// Worker-thread count an AuditOptions resolves to: num_threads when nonzero, else the
// OROCHI_AUDIT_THREADS environment variable (0 = auto, like the option), else
// std::thread::hardware_concurrency(). A set but malformed environment value is a hard
// configuration error, never a silent fallback — audit entry points surface it before
// consuming an epoch.
Result<size_t> ResolveAuditThreads(const AuditOptions& options);

class Auditor {
 public:
  explicit Auditor(const Application* app, AuditOptions options = {});

  // SSCO grouped audit of one epoch (parallel over group chunks): equivalent to feeding a
  // single epoch to a fresh AuditSession opened at `initial`.
  AuditResult Audit(const Trace& trace, const Reports& reports, const InitialState& initial);

  // Per-request baseline with identical checks (grouping and dedup disabled).
  AuditResult AuditSequential(const Trace& trace, const Reports& reports,
                              const InitialState& initial);

 private:
  const Application* app_;
  AuditOptions options_;
};

}  // namespace orochi

#endif  // SRC_CORE_AUDITOR_H_

// The re-execution drivers shared by both audit engines: AuditSession's grouped
// SIMD-on-demand epoch audit and Auditor::AuditSequential's per-request baseline.
//
// ReplaySingleRequest re-executes one request with simulate-and-check (Figure 12); it is
// the baseline's unit of work and the §4.7 escape hatch for groups acc cannot run in
// lockstep. RunGroupChunk re-executes one control-flow group chunk via the acc
// interpreter, falling back to per-request replay on AccStepResult::kFallback. Both
// return the produced outputs (RunGroupChunk's in `rids` order) for the caller to check
// against the trace (AuditContext::CheckOutput).
#ifndef SRC_CORE_REEXEC_H_
#define SRC_CORE_REEXEC_H_

#include <string>
#include <vector>

#include "src/core/audit_context.h"

namespace orochi {

Result<std::string> ReplaySingleRequest(const Application* app,
                                        const InterpreterOptions& interp_options,
                                        AuditContext* ctx, RequestId rid,
                                        AuditWorkerState* ws);

// `prog` nullptr: the requests target a script the application lacks, and each output is
// kNoSuchScriptBody (planning has already checked that none claims an operation).
Result<std::vector<std::string>> RunGroupChunk(const Application* app,
                                               const InterpreterOptions& interp_options,
                                               AuditContext* ctx, const Program* prog,
                                               const std::vector<RequestId>& rids,
                                               AuditWorkerState* ws);

}  // namespace orochi

#endif  // SRC_CORE_REEXEC_H_

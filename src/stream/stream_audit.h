// Instrumentation surface of the out-of-core audit (AuditSession::FeedEpochFilesStreamed
// and FeedShardedEpoch): tests swap in a counting TraceChunkLoader to assert the memory
// budget actually held, and benches read the ChunkBudget's high-water mark to report peak
// resident trace bytes. Production callers pass nothing and get a FileTraceChunkLoader
// plus a budget resolved from AuditOptions::max_resident_bytes / OROCHI_AUDIT_BUDGET.
#ifndef SRC_STREAM_STREAM_AUDIT_H_
#define SRC_STREAM_STREAM_AUDIT_H_

#include <cstdint>

#include "src/core/audit_session.h"
#include "src/stream/chunk_loader.h"
#include "src/stream/reports_index.h"
#include "src/stream/shard_merge.h"
#include "src/stream/trace_index.h"

namespace orochi {

// Ignored: pass 2 has no read-ahead. Kept only until ledger/bench_ledger.cpp stops naming it.
struct PrefetchStats {
  uint64_t issued = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t revoked = 0;
  uint64_t bytes = 0;
};

struct StreamAuditHooks {
  // Overrides the trace payload loader. The hook's Load/Evict see exactly the point reads
  // the audit performs, bracketed by OnChunkResident/OnChunkEvicted per chunk. Not owned.
  TraceChunkLoader* loader = nullptr;
  // Overrides the op-log contents loader (reports side), with the same residency
  // brackets. A counting pair sharing one tally across both loaders observes the total
  // resident trace+reports bytes the single budget admitted. Not owned.
  ReportsChunkLoader* reports_loader = nullptr;
  // Overrides the budget (its max wins over the options/env resolution). One budget
  // governs trace payloads AND op-log contents. Not owned; lets a bench read peak_bytes()
  // after the audit returns.
  ChunkBudget* budget = nullptr;
  // Ignored; kept only until ledger/bench_ledger.cpp stops naming it.
  PrefetchStats* prefetch_stats = nullptr;
};

}  // namespace orochi

#endif  // SRC_STREAM_STREAM_AUDIT_H_

// Merge-join of per-collector spill-file pairs into one logical epoch, so a single
// verifier can audit many front ends (the ROADMAP's sharded-collector deployment):
//
//   shard 3 ── trace_3.bin / reports_3.bin ─┐
//   shard 1 ── trace_1.bin / reports_1.bin ─┼─ MergeShards ─► one skeleton trace set
//   shard 2 ── trace_2.bin / reports_2.bin ─┘                 + one merged Reports
//
// Determinism: shards always merge in ascending stamped-shard-id order (argument position
// breaks ties, covering unstamped files), traces concatenate in that order, and reports
// merge via AppendReports — so every verifier that feeds the same file set computes the
// same logical epoch, byte for byte. A requestID appearing in two shards' traces or
// reports is a merge error: shards are front-end slices of disjoint traffic, and a shared
// rid would make the concatenated trace unbalanced by construction.
#ifndef SRC_STREAM_SHARD_MERGE_H_
#define SRC_STREAM_SHARD_MERGE_H_

#include <string>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/audit_session.h"
#include "src/objects/reports.h"
#include "src/obs/trace.h"
#include "src/stream/reports_index.h"
#include "src/stream/trace_index.h"

namespace orochi {

struct MergedShards {
  StreamTraceSet traces;     // Shard traces appended in merge order (pass-1 skeletons).
  // Shard reports streamed into one skeleton + op-log offset index, merged with
  // AppendReports semantics (object-id remap, group-tag merge) — contents stay on disk.
  StreamReportsSet reports;
  std::vector<uint32_t> shard_ids;  // Stamped ids in merge order (0 = unstamped).
  // Time spent building this epoch so far: the pass1_skeleton spans of
  // StreamShardSkeletons plus the shard_merge fold. The audit continues the same
  // breakdown (AuditStats::phases).
  obs::PhaseBreakdown phases;
};

// One spill pair after pass 1: its own trace and reports skeletons, not yet folded into
// an epoch.
struct ShardSkeletons {
  StreamTraceSet traces;
  StreamReportsSet reports;
  uint32_t stamped_id = 0;  // The trace file's stamped shard id (0 = unstamped).
  Status trace_error;
  Status reports_error;

  // The pair's pass-1 outcome: a trace-file error takes precedence over a reports-file
  // error, whichever finished first.
  const Status& error() const { return trace_error.ok() ? reports_error : trace_error; }
};

// Pass 1 over spill pairs, the shared front half of FeedEpochFilesStreamed and
// MergeShards. Each pair's trace file and reports file are two tasks on a work-stealing
// pool of up to `num_threads` workers (0 or 1 = a pool of one), so even a single epoch
// streams its two files at once. Every task times itself as one pass1_skeleton span in
// its own breakdown; `phases` receives their sum (worker-seconds). The result parallels
// `shards`.
std::vector<ShardSkeletons> StreamShardSkeletons(const std::vector<ShardEpochFiles>& shards,
                                                 Env* env, size_t num_threads,
                                                 obs::PhaseBreakdown* phases);

// `expected_ids`, when nonempty (the manifest path), must parallel `shards`; each entry is
// checked against the trace file's stamped id — a collector that stamped shard 3 cannot be
// passed off as the manifest's shard 2.
//
// Per-shard pass-1 skeleton builds run on StreamShardSkeletons' pool of `num_threads`
// workers (0 or 1 = a pool of one), then fold sequentially in merge order, so the merged
// epoch is bit-identical at every thread count. A shard whose files fail to stream is
// quarantined: the merge errors out naming the shard id and both file paths, so the
// operator knows exactly which collector's spill to restore. Reads go through
// `env` (nullptr = the production posix environment).
Result<MergedShards> MergeShards(const std::vector<ShardEpochFiles>& shards,
                                 const std::vector<uint32_t>& expected_ids = {},
                                 Env* env = nullptr, size_t num_threads = 0);

// Reads a wire-format shard manifest and merges the pairs it names, resolving relative
// spill paths against the manifest file's directory.
Result<MergedShards> MergeShardsFromManifest(const std::string& manifest_path,
                                             Env* env = nullptr, size_t num_threads = 0);

}  // namespace orochi

#endif  // SRC_STREAM_SHARD_MERGE_H_

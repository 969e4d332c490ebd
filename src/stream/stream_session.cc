// The out-of-core members of AuditSession (declared in src/core/audit_session.h): the
// two-pass streaming audit and its sharded-ingestion front door.
//
//   pass 1  StreamShardSkeletons (+ the ShardMerge fold) — stream every spill record,
//           keep trace and reports skeletons + byte-offset indexes (payloads and op-log
//           contents stay on disk); each trace file and reports file is its own task on
//           the worker pool
//   prepare AuditContext::Prepare — ProcessOpReports, the register + KV builds and one
//           parse task per DB log segment (paged in by SegmentedOpLogScanner in
//           byte-capped segments) run on the worker pool; the DB replay follows the
//           parse frontier in seqnum order, on one worker at a time
//   pass 2  ExecuteAuditPlan + StreamTaskGate — re-execute chunks whose request payloads
//           AND claimed op-log entry contents are paged in on demand, both charged to the
//           one ChunkBudget; as a chunk retires, its worker pages each of its responses
//           in alone (a point read via the pass-1 index, charged to the same budget),
//           checks the output against it, and evicts it
//   verdict AuditContext::CompareOutputs — the per-rid verdicts scanned in trace order
//
// Passes 1 and 2 and Prepare run on AuditOptions::num_threads workers; only the shard
// merge's fold and the final verdict scan run on the calling thread.
//
// Verdict, rejection reason, and final_state are bit-identical to the in-memory
// FeedEpoch over the decoded files at every thread count: both paths run the same
// planner and executor (src/core/audit_plan.h) over the same AuditContext — the streaming
// path only changes *when* payload and contents bytes are resident, never what the audit
// computes.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/audit_plan.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/stream/checkpoint.h"
#include "src/stream/stream_audit.h"

namespace orochi {

namespace {

// A maximal run of consecutive-seqnum op-log entries of one object a chunk's
// re-execution will CheckOp against — the loader's unit, one pread per file-contiguous
// piece.
struct ClaimedRun {
  size_t object;
  uint64_t first_seqnum;
  uint64_t count;
};

// What Acquire computed for a task, kept so Release never redoes the op-map walk.
struct ClaimedChunk {
  std::vector<ClaimedRun> runs;
  uint64_t trace_bytes = 0;
  uint64_t report_bytes = 0;
};

// Pages one chunk's request payloads and op-log entry contents in around its
// re-execution, then each of its responses around that rid's output check. Every call
// runs on the worker thread executing the task; pool tasks never share a rid (duplicate
// claims run serially after the join), and every op-log entry is claimed by exactly one
// (rid, opnum) — CheckLogs rejects duplicate claims before any task runs — so the
// skeleton events and log entries a gate call mutates are only ever read by that same
// thread.
class StreamTaskGate : public AuditTaskGate {
 public:
  StreamTaskGate(StreamTraceSet* traces, TraceChunkLoader* trace_loader,
                 StreamReportsSet* reports, ReportsChunkLoader* reports_loader,
                 ChunkBudget* budget, const AuditContext* ctx)
      : traces_(traces), trace_loader_(trace_loader), reports_(reports),
        reports_loader_(reports_loader), budget_(budget), ctx_(ctx) {}

  Status Acquire(const AuditTask& task) override {
    ClaimedChunk chunk = ClaimChunk(task);
    // One admission covers both sides: resident trace + reports bytes share the budget.
    const uint64_t bytes = chunk.trace_bytes + chunk.report_bytes;
    budget_->Acquire(bytes);
    if (Status st = LoadChunk(task, chunk); !st.ok()) {
      budget_->Release(bytes);
      return st;
    }
    std::lock_guard<std::mutex> lock(mu_);
    claimed_[task.order] = std::move(chunk);
    return Status::Ok();
  }

  void Release(const AuditTask& task) override {
    ClaimedChunk chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = claimed_.find(task.order);
      chunk = std::move(it->second);  // Always pairs a successful Acquire.
      claimed_.erase(it);
    }
    EvictTracePrefix(task, task.rids.size());
    EvictRuns(chunk.runs, chunk.runs.size());
    trace_loader_->OnChunkEvicted(chunk.trace_bytes);
    reports_loader_->OnChunkEvicted(chunk.report_bytes);
    budget_->Release(chunk.trace_bytes + chunk.report_bytes);
  }

  // A response is its own admission, made after its chunk released the chunk's bytes, so
  // checking never grows a chunk's admission.
  Status AcquireResponse(RequestId rid) override {
    const size_t index = ctx_->ResponseIndex(rid);
    const uint64_t bytes = traces_->loc(index).bytes;
    budget_->Acquire(bytes);
    trace_loader_->OnChunkResident(bytes);
    Status st =
        trace_loader_->Load(*traces_, index, &traces_->mutable_skeleton()->events[index]);
    if (!st.ok()) {
      trace_loader_->OnChunkEvicted(bytes);
      budget_->Release(bytes);
    }
    return st;
  }

  void ReleaseResponse(RequestId rid) override {
    const size_t index = ctx_->ResponseIndex(rid);
    const uint64_t bytes = traces_->loc(index).bytes;
    trace_loader_->Evict(*traces_, index, &traces_->mutable_skeleton()->events[index]);
    trace_loader_->OnChunkEvicted(bytes);
    budget_->Release(bytes);
  }

 private:
  // Pages the claim in: residency brackets, one batched trace load, one load per op-log
  // run. On error everything already installed is evicted again (skeletons clean; the
  // budget charge is untouched — Acquire refunds it).
  Status LoadChunk(const AuditTask& task, const ClaimedChunk& chunk) {
    trace_loader_->OnChunkResident(chunk.trace_bytes);
    reports_loader_->OnChunkResident(chunk.report_bytes);
    auto roll_back = [&](bool trace_loaded, size_t runs_loaded) {
      EvictTracePrefix(task, trace_loaded ? task.rids.size() : 0);
      EvictRuns(chunk.runs, runs_loaded);
      trace_loader_->OnChunkEvicted(chunk.trace_bytes);
      reports_loader_->OnChunkEvicted(chunk.report_bytes);
    };
    std::vector<size_t> indexes;
    indexes.reserve(task.rids.size());
    for (RequestId rid : task.rids) {
      size_t index = traces_->RequestIndex(rid);
      if (index != SIZE_MAX) {  // Planning already verified every chunk rid is traced.
        indexes.push_back(index);
      }
    }
    if (Status st = trace_loader_->LoadBatch(*traces_, indexes,
                                             traces_->mutable_skeleton());
        !st.ok()) {
      roll_back(false, 0);  // LoadBatch evicted its own partial installs.
      return st;
    }
    for (size_t i = 0; i < chunk.runs.size(); i++) {
      if (Status st = reports_loader_->Load(reports_, chunk.runs[i].object,
                                            chunk.runs[i].first_seqnum,
                                            chunk.runs[i].count);
          !st.ok()) {
        roll_back(true, i);
        return st;
      }
    }
    return Status::Ok();
  }

  // One walk per task: the chunk's trace payload bytes, and the op-log entries its
  // CheckOps compare contents against — every (rid, opnum) claim of the chunk's rids,
  // except entries the skeleton types as db ops (their contents were parsed into the
  // context's db log during Prepare's redo scan, and CheckOp compares the parsed form,
  // never the raw contents). Entries are sorted and coalesced into consecutive-seqnum
  // runs so the loader fetches each run with single preads instead of one per entry.
  ClaimedChunk ClaimChunk(const AuditTask& task) const {
    ClaimedChunk chunk;
    const OpMap& op_map = ctx_->processed().op_map;
    const Reports& skeleton = reports_->skeleton();
    std::vector<std::pair<size_t, uint64_t>> entries;  // (object, seqnum)
    for (RequestId rid : task.rids) {
      size_t index = traces_->RequestIndex(rid);
      if (index != SIZE_MAX) {
        chunk.trace_bytes += traces_->loc(index).bytes;
      }
      const uint32_t m = ctx_->OpCount(rid);
      for (uint32_t opnum = 1; opnum <= m; opnum++) {
        OpLocation loc = op_map.Find(rid, opnum);
        if (!loc.valid() || loc.seqnum == 0 ||
            loc.object >= skeleton.op_logs.size() ||
            loc.seqnum > skeleton.op_logs[loc.object].size()) {
          continue;  // CheckLogs guarantees validity; stay defensive anyway.
        }
        if (skeleton.op_logs[loc.object][loc.seqnum - 1].type == StateOpType::kDbOp) {
          continue;
        }
        chunk.report_bytes += reports_->loc(loc.object, loc.seqnum).bytes;
        entries.emplace_back(loc.object, loc.seqnum);
      }
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [object, seqnum] : entries) {
      if (!chunk.runs.empty() && chunk.runs.back().object == object &&
          chunk.runs.back().first_seqnum + chunk.runs.back().count == seqnum) {
        chunk.runs.back().count++;
      } else {
        chunk.runs.push_back({object, seqnum, 1});
      }
    }
    return chunk;
  }

  void EvictTracePrefix(const AuditTask& task, size_t count) {
    Trace* skeleton = traces_->mutable_skeleton();
    for (size_t i = 0; i < count; i++) {
      size_t index = traces_->RequestIndex(task.rids[i]);
      if (index != SIZE_MAX) {
        trace_loader_->Evict(*traces_, index, &skeleton->events[index]);
      }
    }
  }

  void EvictRuns(const std::vector<ClaimedRun>& runs, size_t count) {
    for (size_t i = 0; i < count; i++) {
      reports_loader_->Evict(reports_, runs[i].object, runs[i].first_seqnum,
                             runs[i].count);
    }
  }

  StreamTraceSet* traces_;
  TraceChunkLoader* trace_loader_;
  StreamReportsSet* reports_;
  ReportsChunkLoader* reports_loader_;
  ChunkBudget* budget_;
  const AuditContext* ctx_;
  std::mutex mu_;  // Guards claimed_ (one insert + one extract per task).
  std::unordered_map<size_t, ClaimedChunk> claimed_;
};

}  // namespace

Result<AuditResult> AuditSession::FeedMergedEpochStreamed(MergedShards&& merged,
                                                          const StreamAuditHooks* hooks) {
  using R = Result<AuditResult>;
  // Config errors are hard errors before the epoch is consumed.
  if (Result<size_t> threads = ResolveAuditThreads(options_); !threads.ok()) {
    return threads.status();
  }
  uint64_t budget_bytes = 0;
  if (hooks == nullptr || hooks->budget == nullptr) {
    Result<uint64_t> resolved = ResolveAuditBudget(options_);
    if (!resolved.ok()) {
      return resolved.status();
    }
    budget_bytes = resolved.value();
  }
  epochs_fed_++;
  AuditResult out;
  AuditContext ctx(&merged.traces.skeleton(), &merged.reports.skeleton(), app_, &state_,
                   options_);
  ctx.stats().phases = merged.phases;  // Pass 1 (and the shard fold) open the epoch.

  FileTraceChunkLoader default_loader(&merged.traces, options_.io_env);
  FileReportsChunkLoader default_reports_loader(&merged.reports, options_.io_env);
  ChunkBudget default_budget(budget_bytes);
  TraceChunkLoader* loader =
      hooks != nullptr && hooks->loader != nullptr ? hooks->loader : &default_loader;
  ReportsChunkLoader* reports_loader =
      hooks != nullptr && hooks->reports_loader != nullptr ? hooks->reports_loader
                                                           : &default_reports_loader;
  ChunkBudget* budget =
      hooks != nullptr && hooks->budget != nullptr ? hooks->budget : &default_budget;

  // Pass-1 transient residency (whole record payloads held while indexing) is outside
  // the chunk budget's sight; surface the peak so tests and operators can hold it against
  // the budget. v3 segmented spills bound it by one segment, not one object's log.
  ctx.stats().pass1_transient_peak_bytes = merged.reports.pass1_transient_peak_bytes();

  // Resumable audit: the sidecar checkpoint journals each chunk task whose re-execution
  // and output checks passed. The fingerprint binds the journal to this exact (epoch
  // content, audit options) combination — computed from the pass-1 skeletons including
  // payload CRCs, so a stale, foreign, or tampered-epoch checkpoint contributes nothing.
  // An unusable checkpoint path is a file-level error — the epoch is unconsumed and
  // retryable.
  std::unique_ptr<CheckpointJournal> journal;
  if (!options_.checkpoint_path.empty()) {
    Result<std::unique_ptr<CheckpointJournal>> opened = CheckpointJournal::Open(
        options_.io_env, options_.checkpoint_path,
        StreamEpochFingerprint(state_, merged.traces, merged.reports, options_));
    if (!opened.ok()) {
      epochs_fed_--;
      return opened.status();
    }
    journal = std::move(opened).value();
  }
  // Once a verdict (accept or reject) is reached the checkpoint is spent: the next audit
  // of this path starts from a different state, and leaving the file would only cost a
  // fingerprint-mismatch discard. Removal failures are therefore ignorable.
  auto spend_checkpoint = [&] {
    if (journal != nullptr) {
      journal->RemoveFile();
    }
  };
  auto reject = [&](std::string reason) {
    spend_checkpoint();
    out.reason = std::move(reason);
    out.stats = ctx.stats();
    return R(out);
  };

  // The versioned-store builds inside Prepare() consume spilled op-log contents as
  // budget-bounded segment scans instead of resident logs.
  SegmentedOpLogScanner scanner(&merged.reports, reports_loader, budget);
  ctx.set_oplog_scanner(&scanner);
  bool prepare_load_failed = false;
  if (Status st = ctx.Prepare(&prepare_load_failed); !st.ok()) {
    if (prepare_load_failed) {
      // Paging a log segment in failed (spill file vanished or changed mid-audit): a
      // file-level error, not a verdict — the epoch is unconsumed.
      epochs_fed_--;
      return st;
    }
    return reject(st.error());
  }

  AuditPlan plan = PlanAuditTasks(&ctx, merged.reports.skeleton(), app_, options_);

  StreamTaskGate gate(&merged.traces, loader, &merged.reports, reports_loader, budget,
                      &ctx);
  AuditExecOutcome exec = ExecuteAuditPlan(&ctx, app_, options_, plan, &gate, journal.get());
  if (!exec.gate_error.ok()) {
    // Paging a chunk in failed (spill file vanished or changed mid-audit): a file-level
    // error, not a verdict — the epoch is unconsumed, exactly like a spill file that
    // fails pass 1. The checkpoint survives for the retry.
    epochs_fed_--;
    return exec.gate_error;
  }
  if (exec.fail_order != kNoAuditFailure) {
    return reject(exec.fail_reason);
  }

  bool load_failed = false;
  Status compared;
  {
    obs::TraceSpan span(&ctx.stats().phases, obs::Phase::kCompare);
    compared = ctx.CompareOutputs(&load_failed);
  }
  if (load_failed) {
    // Paging a response in for its check failed: a file-level error like a gate error.
    // The journal keeps every chunk whose checks all passed for the retry.
    epochs_fed_--;
    return compared;
  }
  if (!compared.ok()) {
    return reject(compared.error());
  }
  spend_checkpoint();
  CommitAccepted(&ctx, &out);
  return out;
}

Result<AuditResult> AuditSession::FeedEpochFilesStreamed(const std::string& trace_path,
                                                         const std::string& reports_path,
                                                         const StreamAuditHooks* hooks) {
  // A config error surfaces before either file is read.
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return threads.status();
  }
  // Built without MergeShards' fold so single-file error messages stay identical to
  // ReadTraceFile's and ReadReportsFile's — the one-shard case is a drop-in replacement.
  MergedShards merged;
  std::vector<ShardSkeletons> pass1 = StreamShardSkeletons(
      {{trace_path, reports_path}}, options_.io_env, threads.value(), &merged.phases);
  ShardSkeletons& pair = pass1[0];
  if (!pair.error().ok()) {
    return pair.error();
  }
  merged.traces = std::move(pair.traces);
  merged.reports = std::move(pair.reports);
  merged.shard_ids.push_back(pair.stamped_id);
  return FeedMergedEpochStreamed(std::move(merged), hooks);
}

Result<AuditResult> AuditSession::FeedShardedEpoch(const std::vector<ShardEpochFiles>& shards,
                                                   const StreamAuditHooks* hooks) {
  // Per-shard pass-1 builds overlap on the audit's own worker count; a config error here
  // surfaces before any shard is read.
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return threads.status();
  }
  Result<MergedShards> merged =
      MergeShards(shards, {}, options_.io_env, threads.value());
  if (!merged.ok()) {
    return merged.status();
  }
  return FeedMergedEpochStreamed(std::move(merged).value(), hooks);
}

Result<AuditResult> AuditSession::FeedShardedEpoch(const std::string& manifest_path,
                                                   const StreamAuditHooks* hooks) {
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return threads.status();
  }
  Result<MergedShards> merged =
      MergeShardsFromManifest(manifest_path, options_.io_env, threads.value());
  if (!merged.ok()) {
    return merged.status();
  }
  return FeedMergedEpochStreamed(std::move(merged).value(), hooks);
}

}  // namespace orochi

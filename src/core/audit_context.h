// Shared audit-time state: the OpMap, versioned stores built by the redo pass (§4.5),
// CheckOp / SimOp (simulate-and-check, §3.3 and Figure 12), non-determinism validation
// (§4.6), and read-query deduplication. Both the grouped SIMD-on-demand re-execution and
// the per-request (baseline / fallback / OOO) re-executions drive this context.
//
// Concurrency model (parallel audit): Prepare() runs on the worker pool too. Its tasks
// write disjoint state: ProcessOpReports fills the OpMap and the per-rid slots, the store
// task fills the register indexes, the versioned KV store and the initial DB snapshot,
// and each DB log segment's parse task fills only its own entries' slots. They share only
// the SELECT parse cache. The DB replay follows the parse frontier, on whichever worker
// completes the parsed prefix, one worker at a time.
// After Prepare() the versioned stores, parsed logs, OpMap, and trace indexes are
// immutable, so CheckOp/SimOp reads are lock-free. The only mutable shared state on the
// re-execution path is (a) the SELECT parse + dedup caches, which are sharded with
// per-shard mutexes so §4.5 query dedup keeps working across threads, and (b) per-request
// cursors and output-verdict slots, which are pre-built for every traced rid in Prepare()
// and only ever touched by the one worker executing that rid's group.
// Stats on the hot path accumulate into a per-worker AuditWorkerState and are merged at
// join, keeping counters contention-free; each Prepare task times itself into its own
// phase breakdown, merged after the join.
#ifndef SRC_CORE_AUDIT_CONTEXT_H_
#define SRC_CORE_AUDIT_CONTEXT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/process_reports.h"
#include "src/obs/trace.h"
#include "src/lang/step_result.h"
#include "src/objects/reports.h"
#include "src/objects/stores.h"
#include "src/objects/trace.h"
#include "src/server/application.h"
#include "src/sql/versioned_database.h"

namespace orochi {

struct AuditOptions {
  size_t max_group_size = 3000;      // acc-PHP's group cap (§4.7).
  bool enable_query_dedup = true;    // §4.5 read-query dedup (ablation switch).
  // Worker threads for grouped re-execution. 0 = auto: OROCHI_AUDIT_THREADS when set,
  // else std::thread::hardware_concurrency().
  size_t num_threads = 0;
  // Memory budget (bytes) for trace payloads and op-log contents resident together
  // during a spill-file audit (AuditSession::FeedEpochFilesStreamed / FeedShardedEpoch):
  // workers block until their chunk fits, and a single chunk larger than the whole budget
  // is admitted only while nothing else is resident. 0 = auto: OROCHI_AUDIT_BUDGET when
  // set, else unlimited. Ignored by FeedEpoch, whose epoch is already in RAM.
  size_t max_resident_bytes = 0;
  // Ignored; kept only until ledger/bench_ledger.cpp stops naming it.
  size_t prefetch_depth = 0;
  // I/O environment every spill read/write of the audit goes through. nullptr = the
  // production posix environment; tests install a FaultInjectingEnv here to drive the
  // whole pipeline through injected faults. Not owned.
  Env* io_env = nullptr;
  // When nonempty, FeedEpochFilesStreamed and FeedShardedEpoch journal each chunk task
  // whose re-execution and output checks passed to this sidecar file and, on a later run
  // over the same epoch, resume without redoing that work. Removed once a verdict (accept
  // or reject) is reached; an I/O-failed run keeps it for the retry.
  std::string checkpoint_path;
  InterpreterOptions interp;
};

struct AuditStats {
  // Thread-seconds per audit phase (src/obs/trace.h): this epoch's Figure 9
  // decomposition. Per-worker blocks merge through MergeFrom like every other field;
  // checkpoint journals do not persist it, so a replayed chunk counts only its replay.
  obs::PhaseBreakdown phases;

  uint64_t total_instructions = 0;
  uint64_t multivalent_instructions = 0;
  uint64_t num_groups = 0;
  uint64_t groups_multi = 0;     // Groups with more than one request.
  uint64_t fallback_groups = 0;  // Groups re-executed per-request (§4.7 escape hatch).
  uint64_t ops_checked = 0;
  uint64_t db_selects_issued = 0;   // SELECTs actually run against versioned storage.
  uint64_t db_selects_deduped = 0;  // SELECTs answered from the dedup cache.
  // Chunk tasks replayed from a checkpoint journal instead of re-executed and checked
  // (only nonzero on a resumed streamed audit; see src/stream/checkpoint.h).
  uint64_t checkpoint_chunks_reused = 0;
  // Largest record payload pass 1 transiently materialized while indexing the reports
  // spill (max-merged, not summed). Bounded by ~wire::kMaxOpLogSegmentBytes for v3
  // spills; a v2 file pays its largest monolithic op-log record.
  uint64_t pass1_transient_peak_bytes = 0;

  struct GroupStat {
    std::string script;
    uint32_t n;        // Requests in the group.
    uint64_t length;   // Instructions executed by the group (l_c in Figure 11).
    double alpha;      // Fraction of univalent instructions (alpha_c in Figure 11).
  };
  std::vector<GroupStat> group_stats;

  // Folds a per-worker (or per-task) stats block into this one. The parallel audit merges
  // task blocks in group order, so group_stats ordering matches sequential execution.
  void MergeFrom(const AuditStats& o);
};

// Per-worker mutable state for the re-execution hot path: a stats block the worker owns
// exclusively (merged under the caller's control) and a scratch buffer reused for
// op-content serialization so CheckOp does not allocate per comparison.
struct AuditWorkerState {
  explicit AuditWorkerState(AuditStats* s) : stats(s) {}
  AuditStats* stats;
  std::string scratch;
};

// A run of contiguous entries of one object's op log: the unit a scanner pages in at once
// and the unit of one Prepare parse task.
struct OpLogSegment {
  uint64_t first_seqnum = 1;  // 1-based.
  uint64_t count = 0;
};

using OpLogEntryFn = std::function<Status(const OpRecord&, uint64_t)>;

// Segment-wise access to one object's op log with entry contents materialized. The
// in-memory path scans the resident Reports (ResidentOpLogScanner); the out-of-core path
// installs a segment-paging scanner (src/stream/reports_index.h) before Prepare(), so the
// versioned-store builds read spilled log contents in bounded pages charged against the
// same budget as trace payloads. The entries handed to `fn` must be identical to the
// resident log's: a scanner only changes *when* contents bytes are resident, never what
// the builds see. Distinct segments may be scanned concurrently.
class OpLogScanner {
 public:
  virtual ~OpLogScanner() = default;
  // `object`'s log cut into consecutive segments, in seqnum order.
  virtual std::vector<OpLogSegment> Segments(size_t object) const = 0;
  // Invokes fn(entry, seqnum) for every entry of `segment` in order and returns fn's
  // first error, stopping there. A failure to page the segment in is returned too, and
  // sets *load_failed: a file-level error, not an audit verdict.
  virtual Status ScanSegment(size_t object, OpLogSegment segment, const OpLogEntryFn& fn,
                             bool* load_failed) = 0;
  // Every segment of `object`'s log in order; stops at the first error.
  Status Scan(size_t object, const OpLogEntryFn& fn, bool* load_failed);
};

// Scans the resident reports. Nothing pages, so a segment is a fixed run of entries,
// sized so that a typical epoch's DB log splits into several parse tasks.
class ResidentOpLogScanner : public OpLogScanner {
 public:
  static constexpr uint64_t kSegmentEntries = 128;

  explicit ResidentOpLogScanner(const Reports* reports) : reports_(reports) {}
  std::vector<OpLogSegment> Segments(size_t object) const override;
  Status ScanSegment(size_t object, OpLogSegment segment, const OpLogEntryFn& fn,
                     bool* load_failed) override;

 private:
  const Reports* reports_;
};

class AuditContext {
 public:
  AuditContext(const Trace* trace, const Reports* reports, const Application* app,
               const InitialState* initial, AuditOptions options);

  // Installs the op-log scanner the versioned-store builds read spilled contents through.
  // Must be called before Prepare(); null (the default) scans the resident reports.
  void set_oplog_scanner(OpLogScanner* scanner) {
    oplog_scanner_ = scanner != nullptr ? scanner : &resident_scanner_;
  }

  // Balanced-trace check, ProcessOpReports, and the versioned-storage builds, timed as
  // the proc_op_reports and db_redo phases. An error means the audit REJECTs with that
  // reason, unless it is a failure to page an op-log segment in: then it is the loader's
  // Status and *load_failed is set, a file-level error rather than a verdict. On success
  // the versioned stores are frozen: everything the re-execution phase reads is immutable
  // from here on.
  //
  // ProcessOpReports, the register + KV builds and each DB log segment's parse are tasks
  // of one TaskPool run of AuditOptions::num_threads workers; the DB replay follows
  // the parse frontier in seqnum order, so only segments parsed ahead of it hold ASTs.
  // Whatever the thread count, the error returned is the one a serial Prepare reaches
  // first: ProcessOpReports, then the registers, the KV store, the initial DB snapshot,
  // and the DB log in seqnum order (a segment's load failure just before its first
  // entry). After any failure, tasks that have not started are skipped; a pool of one
  // thus parses and replays one segment at a time.
  Status Prepare(bool* load_failed = nullptr);

  // CheckOp (Figure 12 lines 10-15): validates that the program-generated op matches the
  // unique log entry claiming (rid, opnum); returns that entry's (object, seqnum).
  Result<OpLocation> CheckOp(RequestId rid, uint32_t opnum, const StateOpRequest& op,
                             AuditWorkerState* ws);
  Result<OpLocation> CheckOp(RequestId rid, uint32_t opnum, const StateOpRequest& op) {
    return CheckOp(rid, opnum, op, &inline_ws_);
  }

  // SimOp (Figure 12 lines 17-28) extended with write results: reads are fed from the
  // logs / versioned stores; DB writes return the redo pass outcome.
  Result<Value> SimOp(const StateOpRequest& op, OpLocation loc, AuditWorkerState* ws);
  Result<Value> SimOp(const StateOpRequest& op, OpLocation loc) {
    return SimOp(op, loc, &inline_ws_);
  }

  // --- Non-determinism feeding (§4.6) ---
  // Resets the per-request cursor (re-execution is idempotent; a request may re-run).
  void ResetNondet(RequestId rid);
  Result<Value> NextNondet(RequestId rid, const NondetRequest& req);
  Status CheckNondetConsumed(RequestId rid);

  // M(rid) with default 0.
  uint32_t OpCount(RequestId rid) const;

  // The trace's request event for rid; nullptr when absent.
  const TraceEvent* RequestEvent(RequestId rid) const;

  const ProcessedReports& processed() const { return processed_; }
  AuditStats& stats() { return stats_; }

  // --- Output checks (the audit's final accept condition, Figure 3) ---
  // Every traced rid has one verdict slot, pre-built in Prepare(): unchecked until the
  // re-execution that produced rid's output checks it. While tasks run, only the worker
  // owning rid's task touches its slot.
  //
  // Event index of rid's traced response; SIZE_MAX when rid is untraced.
  size_t ResponseIndex(RequestId rid) const;
  // Compares `output`, rid's re-executed output, with rid's traced response body and
  // records the verdict; true on a match. The body must be resident: the streamed feed
  // pages it in around the call (AuditTaskGate::AcquireResponse).
  bool CheckOutput(RequestId rid, const std::string& output);
  // Records that rid's response could not be paged in for its check.
  void MarkResponseLoadFailed(RequestId rid, Status error);
  // Records rid as matched without a check: the replay of a journaled task, every one of
  // whose outputs matched when it was journaled.
  void MarkOutputMatched(RequestId rid);
  // The final verdict scan: the first response in trace order whose rid was never
  // checked ("never re-executed"), mismatched, or failed to load. A load failure returns
  // the loader's Status and sets *load_failed — a file-level error, not a verdict.
  Status CompareOutputs(bool* load_failed = nullptr) const;

  // The end-of-period object state implied by the logs (kept as the next InitialState).
  InitialState ExtractFinalState() const;

 private:
  // One DB log entry as the parse stage leaves it for the replay: the entry's error, or
  // its statements parsed (every statement of an entry claiming success, the single
  // statement of one claiming failure). Its DbContents go to db_log_parsed_.
  struct DbRedoSlot {
    Status error;              // Replay stops here with this error.
    bool load_failed = false;  // `error` is the page-in failure of the segment this opens.
    std::vector<Result<std::shared_ptr<const SqlStatement>>> stmts;
  };

  // Balanced-trace check, per-rid slot pre-build, ProcessOpReports.
  Status ProcessReports();
  // Register indexes, the versioned KV store and the initial DB snapshot, in that order.
  Status BuildStores(bool* load_failed);
  Status BuildRegisterIndexes(bool* load_failed);
  Status BuildVersionedKv(bool* load_failed);
  // Pages one DB log segment in and fills its entries' slots; thread-safe across
  // segments.
  void ParseDbSegment(OpLogSegment segment, std::vector<DbRedoSlot>* slots);
  // The redo pass (§4.5) over one parsed segment: claimed-failure dry runs and
  // ApplyWrite in seqnum order, stopping at the first failure.
  Status ReplayDbSegment(OpLogSegment segment, std::vector<DbRedoSlot>* slots,
                         bool* load_failed);

  Result<Value> SimDbOp(const StateOpRequest& op, OpLocation loc, AuditWorkerState* ws);
  // Executes (or dedups) one SELECT at timestamp ts; returns its script-level Value.
  Result<Value> RunSelect(const std::string& sql, uint64_t ts, AuditWorkerState* ws);

  const Trace* trace_;
  const Reports* reports_;
  const Application* app_;
  const InitialState* initial_;
  AuditOptions options_;
  ResidentOpLogScanner resident_scanner_;
  OpLogScanner* oplog_scanner_;

  ProcessedReports processed_;
  std::unordered_map<RequestId, const TraceEvent*> request_events_;

  // Per-register-object parsed write sequences: (seqnum, value), ascending.
  std::vector<std::vector<std::pair<uint64_t, Value>>> register_writes_;
  VersionedKv versioned_kv_;
  VersionedDatabase versioned_db_;
  int kv_object_ = -1;
  int db_object_ = -1;
  // Register name -> object id, built in Prepare() so CheckOp resolves its target in
  // constant time; the first object of a name wins, as Reports::FindObject picks.
  std::unordered_map<std::string, uint32_t> register_objects_;

  // Parsed DB log entries (per seqnum-1, sized in Prepare so parse tasks fill their own
  // entries) and redo outcomes for write statements (by ts).
  std::vector<DbContents> db_log_parsed_;
  std::unordered_map<uint64_t, int64_t> redo_affected_;

  // SELECT parse + dedup caches, striped so dedup works across audit workers: a shard's
  // mutex guards its parse and dedup maps; the (expensive) SELECT itself runs outside any
  // lock against the frozen versioned store. An entry keeps the SELECT's script-level
  // Value, built once when the SELECT runs: every request a hit serves receives the same
  // storage, so a control-flow group's reads collapse at the pointer-equality check instead
  // of a deep compare. The entry's own reference means copy-on-write never writes that
  // storage in place, so each request's mutations stay private.
  struct DedupEntry {
    uint64_t ts;
    Value result;
  };
  struct QueryCacheShard {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const SqlStatement>> parse;
    std::unordered_map<std::string, std::vector<DedupEntry>> dedup;  // Sorted by ts.
  };
  static constexpr size_t kQueryCacheShards = 16;
  std::array<QueryCacheShard, kQueryCacheShards> query_cache_;

  QueryCacheShard& CacheShard(const std::string& sql);
  // Parses `sql` through its shard's parse cache, shared by the redo pass and RunSelect, so
  // each distinct SELECT text parses once per epoch. Other statements parse on every call
  // and are not cached: write texts are mostly unique, so caching them only grows memory.
  Result<std::shared_ptr<const SqlStatement>> ParseCached(const std::string& sql,
                                                          QueryCacheShard& shard);

  // Nondet cursors and monotonicity state. Pre-built for every traced rid in Prepare();
  // re-execution only mutates existing entries (one worker per rid at a time).
  struct NondetCursor {
    size_t pos = 0;
    bool has_last_time = false;
    int64_t last_time = 0;
    bool has_last_micro = false;
    double last_micro = 0;
  };
  std::unordered_map<RequestId, NondetCursor> nondet_cursors_;
  static const std::vector<NondetRecord> kNoNondet;

  enum class OutputVerdict : uint8_t { kUnchecked, kMatched, kMismatched, kLoadFailed };
  struct OutputSlot {
    size_t response = SIZE_MAX;  // Event index of rid's traced response.
    OutputVerdict verdict = OutputVerdict::kUnchecked;
    Status load_error;  // Why paging the response in failed (kLoadFailed only).
  };
  std::unordered_map<RequestId, OutputSlot> outputs_;

  AuditStats stats_;
  // Worker state backing the single-threaded convenience overloads (baseline / OOO /
  // main-thread callers): stats feed straight into stats_.
  AuditWorkerState inline_ws_;
};

}  // namespace orochi

#endif  // SRC_CORE_AUDIT_CONTEXT_H_

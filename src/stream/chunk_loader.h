// The memory governor of the out-of-core audit: a byte budget that workers block on
// before paging a chunk's trace payloads in, and the loader that performs the point reads
// against the spill files indexed by pass 1.
//
// Budget discipline: a worker may hold payload bytes only between its chunk's Acquire and
// Release, so resident bytes never exceed max(budget, largest single chunk) — the
// oversized-chunk exception admits a chunk bigger than the whole budget only while
// nothing else is resident, which is what lets an epoch with one huge group still audit
// in bounded memory (one group at a time) instead of deadlocking.
#ifndef SRC_STREAM_CHUNK_LOADER_H_
#define SRC_STREAM_CHUNK_LOADER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/audit_context.h"
#include "src/stream/trace_index.h"

namespace orochi {

class StreamReportsSet;  // Spilled per-object op-log index (src/stream/reports_index.h).

// Budget (bytes) an AuditOptions resolves to for streamed audits: max_resident_bytes when
// nonzero, else the OROCHI_AUDIT_BUDGET environment variable, else 0 (unlimited). A set
// but malformed environment value (non-numeric, signed, trailing junk, overflow) is a
// hard configuration error, never a silent fallback to unlimited.
Result<uint64_t> ResolveAuditBudget(const AuditOptions& options);

class ChunkBudget {
 public:
  explicit ChunkBudget(uint64_t max_bytes) : max_(max_bytes) {}

  // Blocks until `bytes` fits: used + bytes <= max, or nothing is resident (the oversized
  // -chunk exception; also the unlimited case when max == 0 never blocks). Progress is
  // guaranteed because holders never block on the budget between Acquire and Release.
  void Acquire(uint64_t bytes);
  void Release(uint64_t bytes);

  uint64_t max_bytes() const { return max_; }
  // High-water mark of resident bytes, for benches and budget assertions in tests.
  uint64_t peak_bytes() const;
  // Largest single Acquire seen: the enforceable residency ceiling is
  // max(max_bytes, largest_acquire_bytes), since one admission bigger than the whole
  // budget is allowed while nothing else is resident (the oversized-chunk path).
  uint64_t largest_acquire_bytes() const;

 private:
  const uint64_t max_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t used_ = 0;
  uint64_t peak_ = 0;
  uint64_t largest_acquire_ = 0;
};

// Adjacent point reads (one chunk's trace payloads, one run's op-log entries) coalesce
// into single preads when the file gap between them is at most this many bytes — sized
// to bridge v3 op-log segment framing (a 13-byte record frame + 24-byte segment
// preamble separates entries that v2 wrote contiguously) with margin, while never
// dragging in a meaningful stretch of unrelated bytes. Gap bytes are read and discarded;
// only payload bytes are ever charged to the budget.
inline constexpr uint64_t kCoalesceGapBytes = 256;

// Lazily opened read handles for one set's spill files, shared by both File loaders.
// Reads through a handle are positional, so concurrent workers never share a file
// position; only the lazy opens take the lock.
class SpillFileTable {
 public:
  SpillFileTable(Env* env, size_t num_files) : env_(ResolveEnv(env)), files_(num_files) {}

  // The handle for file `file` (at `path`) of a set holding `num_files` files. The table
  // grows to `num_files`: the set driving the audit can be larger than the one it was
  // sized from (a hooks loader built over a probe set while FeedShardedEpoch merges N
  // files). An open failure is prefixed "stream: cannot reopen <path> for <use>: ".
  Result<std::shared_ptr<ReadableFile>> Get(uint32_t file, size_t num_files,
                                            const std::string& path, const char* use);
  Env* env() const { return env_; }

 private:
  Env* const env_;
  std::mutex mu_;
  std::vector<std::shared_ptr<ReadableFile>> files_;  // null = not yet opened.
};

// Pages individual trace-event payloads in and out of the pass-1 skeleton. Load/Evict
// calls for one event always come from the thread running that event's chunk, and chunks
// partition the rids, so implementations need no per-event locking — only whatever guards
// their own file-handle state. Virtual so tests can interpose a counting loader that
// asserts the budget held.
class TraceChunkLoader {
 public:
  virtual ~TraceChunkLoader() = default;

  // Reads event `index`'s payload from its spill file and installs it into the skeleton
  // event (request params / response body).
  virtual Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) = 0;
  // Loads a whole chunk's events in one call. On error, everything the call had already
  // installed is evicted again before it returns (the skeleton is left clean for these
  // indexes). The default forwards to Load one event at a time; FileTraceChunkLoader
  // overrides it to sort the events by file offset and merge adjacent payload reads
  // (gap ≤ kCoalesceGapBytes) into single preads.
  virtual Status LoadBatch(const StreamTraceSet& set, const std::vector<size_t>& indexes,
                           Trace* skeleton);
  // Drops the payload again, returning the event to skeleton form.
  virtual void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) = 0;

  // Chunk-residency brackets: OnChunkResident fires after a chunk's bytes are admitted by
  // the budget (before its Loads), OnChunkEvicted after its Evicts and budget release.
  // Default no-ops; counting loaders use them to track concurrent residency.
  virtual void OnChunkResident(uint64_t bytes) { (void)bytes; }
  virtual void OnChunkEvicted(uint64_t bytes) { (void)bytes; }
};

// The real loader: positional reads against a SpillFileTable. All reads go through the
// Env (transient faults retry with bounded backoff), and every re-read is checked against
// the CRC32C pass 1 recorded before it is decoded — a spill file mutated mid-audit
// surfaces as an I/O error, never as silent misattribution.
class FileTraceChunkLoader : public TraceChunkLoader {
 public:
  // `set` only pre-sizes the file table; Load follows the set it is handed (the audit's
  // own merged set when this loader rides in via StreamAuditHooks), growing the table as
  // needed. `env` nullptr = the production posix environment.
  explicit FileTraceChunkLoader(const StreamTraceSet* set, Env* env = nullptr);
  ~FileTraceChunkLoader() override;
  FileTraceChunkLoader(const FileTraceChunkLoader&) = delete;
  FileTraceChunkLoader& operator=(const FileTraceChunkLoader&) = delete;

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override;
  // One pread per file-adjacent span of the chunk's payloads (gap ≤ kCoalesceGapBytes),
  // instead of one per event; each payload still verifies against its pass-1 CRC before
  // it is decoded and installed.
  Status LoadBatch(const StreamTraceSet& set, const std::vector<size_t>& indexes,
                   Trace* skeleton) override;
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override;

 private:
  // CRC-checks, decodes, and installs one event's payload bytes.
  Status InstallPayload(const StreamTraceSet& set, size_t index, TraceEvent* event,
                        const char* payload, size_t n);

  SpillFileTable files_;
};

// Pages runs of op-log entry *contents* in and out of a reports skeleton
// (StreamReportsSet, the reports-side mirror of the trace skeleton). A run
// [first_seqnum, first_seqnum + count) of one object's log is the loader's unit: the
// chunk gate loads the single entries a chunk's CheckOps will compare against, and the
// versioned-store builds load forward-scan segments. Entries of one object are only ever
// touched by one thread at a time (chunks partition rids, and each log entry is claimed
// by exactly one rid; duplicate-claim reports are rejected before any load), so
// implementations need no per-entry locking. Virtual so tests can interpose a counting
// loader that asserts the shared trace+reports budget held.
class ReportsChunkLoader {
 public:
  virtual ~ReportsChunkLoader() = default;

  // Reads the entries' wire frames from their spill file and installs each entry's
  // contents into the skeleton log, verifying rid/opnum/type still match the skeleton (a
  // spill file mutated mid-audit surfaces as an I/O error, never as misattribution).
  virtual Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
                      uint64_t count) = 0;
  // Drops the contents again, returning the entries to skeleton form.
  virtual void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
                     uint64_t count) = 0;

  // Residency brackets, mirroring TraceChunkLoader's: fired around each budget
  // acquisition that covers reports bytes, with the byte count charged.
  virtual void OnChunkResident(uint64_t bytes) { (void)bytes; }
  virtual void OnChunkEvicted(uint64_t bytes) { (void)bytes; }
};

// The real loader: positional reads against a SpillFileTable, one read per maximal
// file-contiguous run (entries merged from different shard files fall back to one read
// per contiguous piece), each run's entries verified against their pass-1 CRCs.
class FileReportsChunkLoader : public ReportsChunkLoader {
 public:
  // `set` only pre-sizes the file table; Load follows the set it is handed. `env`
  // nullptr = the production posix environment.
  explicit FileReportsChunkLoader(const StreamReportsSet* set, Env* env = nullptr);
  ~FileReportsChunkLoader() override;
  FileReportsChunkLoader(const FileReportsChunkLoader&) = delete;
  FileReportsChunkLoader& operator=(const FileReportsChunkLoader&) = delete;

  Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
              uint64_t count) override;
  void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
             uint64_t count) override;

 private:
  Status LoadRun(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
                 uint64_t count);

  SpillFileTable files_;
};

}  // namespace orochi

#endif  // SRC_STREAM_CHUNK_LOADER_H_

// The reports-side mirror of src/stream/trace_index.h: stream a reports spill file
// record-by-record and retain only a *skeleton* of the epoch's reports — the object
// table, groups, op counts, and nondet records in full (they are small and drive
// planning/graph construction), and for every op-log entry its rid, opnum, and type plus
// the entry's byte location in the file — never the contents. Op-log contents, the bulk
// of a log-heavy epoch's reports, stay on disk until either a versioned-store build scans
// them forward in bounded segments or a re-execution chunk pages in exactly the entries
// its CheckOps compare against (src/stream/chunk_loader.h), all charged to the same
// ChunkBudget as trace payloads.
//
// The skeleton is a real Reports, which is the trick that lets the streaming path drive
// the unmodified audit engine: ProcessOpReports (graph + OpMap) reads only rids and
// opnums, planning reads only groups, and CheckOp's contents comparisons see entries the
// chunk gate has paged in — so an AuditContext prepared over the skeleton behaves
// bit-identically to one prepared over fully materialized reports.
//
// Multiple files append in shard-merge order exactly as AppendReports would merge them
// (object-id remap, group-tag merge, rid-disjointness), with each appended file's entry
// locations remapped alongside.
#ifndef SRC_STREAM_REPORTS_INDEX_H_
#define SRC_STREAM_REPORTS_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/audit_context.h"
#include "src/objects/reports.h"
#include "src/objects/wire_format.h"
#include "src/stream/chunk_loader.h"

namespace orochi {

// Where one op-log entry's wire frame (rid + opnum + type + length-prefixed contents)
// lives on disk. `bytes` is the whole frame — the cost a load charges to the budget.
struct OpLogEntryLoc {
  uint32_t file = 0;    // Index into StreamReportsSet::file_path().
  uint64_t offset = 0;  // File offset of the entry frame.
  uint64_t bytes = 0;   // Frame length.
  // CRC32C of the entry frame as validated during pass 1, so point loads prove the
  // bytes they re-read are the bytes the streaming pass accepted.
  uint32_t crc = 0;
};

class StreamReportsSet {
 public:
  // Streams `path` into a fresh one-file set and folds that in through Absorb. Every
  // record decodes through the same validator the in-memory reader uses, which also
  // reports each op-log entry's byte span; the entry's location is indexed from that span
  // and its contents shed. At most one record's payload is transiently resident during
  // the pass — and since v3 writers cap op-log records at wire::kMaxOpLogSegmentBytes,
  // that transient is bounded by one *segment* even for a hot object (v2 files still pay
  // one monolithic record). v3 segment records stitch back into the same per-object
  // entry index monolithic records produce, so everything downstream (loaders, scanners,
  // planning) is segmentation-blind. Merge-level errors (rid overlap with an earlier
  // file) are prefixed with `path`; decode errors already name the file. Reads go through
  // `env` (nullptr = the production posix environment).
  Status AppendFile(const std::string& path, Env* env = nullptr);

  // Folds `other` onto this set with AppendReports merge semantics (object-id remap,
  // group-tag merge, rid-disjointness), remapping its entry locations alongside — the
  // sequential fold step of a parallel per-shard pass 1 and the last step of AppendFile.
  // `label` prefixes merge-level errors.
  Status Absorb(StreamReportsSet&& other, const std::string& label);

  const Reports& skeleton() const { return skeleton_; }
  // The loader installs contents into (and evicts them from) skeleton log entries in
  // place; each entry is only ever touched by the one thread running its owner's work.
  Reports* mutable_skeleton() { return &skeleton_; }

  // Entry location for `object`'s log entry at 1-based `seqnum`.
  const OpLogEntryLoc& loc(size_t object, uint64_t seqnum) const {
    return locs_[object][static_cast<size_t>(seqnum - 1)];
  }
  uint64_t log_size(size_t object) const { return locs_[object].size(); }
  size_t num_objects() const { return locs_.size(); }

  size_t num_files() const { return files_.size(); }
  const std::string& file_path(uint32_t file) const { return files_[file]; }

  // Total op-log frame bytes across all objects — what a fully materialized epoch would
  // keep resident on the reports side; the budget bounds the streamed audit below this.
  uint64_t total_log_payload_bytes() const { return total_log_payload_bytes_; }

  // Largest single record payload transiently materialized while indexing — the pass-1
  // residency the chunk budget cannot see (records are decoded before any loader runs).
  // With a v3 writer this is bounded by ~wire::kMaxOpLogSegmentBytes + one entry; with a
  // v2 file it is the largest monolithic op-log record. Also exported as the
  // orochi_pass1_transient_peak_bytes gauge.
  uint64_t pass1_transient_peak_bytes() const { return pass1_transient_peak_bytes_; }

 private:
  Reports skeleton_;
  std::vector<std::vector<OpLogEntryLoc>> locs_;  // Parallel to skeleton_.op_logs.
  std::vector<std::string> files_;
  uint64_t total_log_payload_bytes_ = 0;
  uint64_t pass1_transient_peak_bytes_ = 0;
};

// OpLogScanner over spilled logs: Prepare()'s versioned-store builds (register indexes,
// versioned KV, the db parse tasks) consume each log segment by segment, so this scanner
// pages byte-capped segments of contiguous entries through the loader under the budget —
// the same residency ceiling re-execution honors — and hands the builds fully
// materialized entries one at a time. The loader and budget are thread-safe, and distinct
// segments touch distinct skeleton entries, so Prepare's pool tasks scan concurrently.
class SegmentedOpLogScanner : public OpLogScanner {
 public:
  // Segments hold up to this many frame bytes (a single entry larger than this still
  // forms its own one-entry segment, admitted via the budget's oversized-chunk path).
  // Deliberately the same cap the v3 writer applies to on-disk op-log segments, so scan
  // paging and pass-1 transients share one ceiling.
  static constexpr uint64_t kSegmentBytes = wire::kMaxOpLogSegmentBytes;

  SegmentedOpLogScanner(StreamReportsSet* set, ReportsChunkLoader* loader,
                        ChunkBudget* budget)
      : set_(set), loader_(loader), budget_(budget) {}

  std::vector<OpLogSegment> Segments(size_t object) const override;
  Status ScanSegment(size_t object, OpLogSegment segment, const OpLogEntryFn& fn,
                     bool* load_failed) override;

 private:
  StreamReportsSet* set_;
  ReportsChunkLoader* loader_;
  ChunkBudget* budget_;
};

}  // namespace orochi

#endif  // SRC_STREAM_REPORTS_INDEX_H_

// Pass 1 of the out-of-core audit: stream spill files record-by-record and retain only a
// *skeleton* of the epoch's trace — every event's kind, rid, and (for requests) script
// name, plus each record's byte location in its file — never the payloads. Request
// parameters and response bodies, the bulk of a trace, stay on disk until pass 2 pages a
// chunk's worth in under the memory budget (src/stream/chunk_loader.h).
//
// The skeleton is a real Trace, which is the trick that lets the streaming path drive the
// unmodified audit engine: CheckTraceBalanced, ProcessOpReports, and group planning only
// read kinds, rids, and scripts, so an AuditContext prepared over the skeleton is
// bit-identical in behavior to one prepared over the fully materialized trace.
#ifndef SRC_STREAM_TRACE_INDEX_H_
#define SRC_STREAM_TRACE_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/objects/trace.h"

namespace orochi {

// Where one trace event's payload lives on disk.
struct TraceEventLoc {
  uint32_t file = 0;       // Index into StreamTraceSet::file_path().
  uint8_t record_type = 0; // wire::kTraceRecRequest / kTraceRecResponse.
  uint64_t offset = 0;     // File offset of the record payload (past the record frame).
  uint64_t bytes = 0;      // Payload length — the cost a load charges to the budget.
  // CRC32C of the payload as validated during pass 1 (read from the record frame), so
  // pass-2 point reads prove the file has not changed since.
  uint32_t crc = 0;
};

class StreamTraceSet {
 public:
  // Streams `path` (a skeleton decode: each record is validated exactly as the in-memory
  // reader would, but its params and body are never copied out) and appends its events
  // to the skeleton. Multiple
  // files concatenate in call order — the shard merge order. Returns the file's stamped
  // shard id (0 when unsharded). Reads go through `env` (nullptr = the production
  // posix environment), so transient faults retry and injected-fault tests reach pass 1.
  Result<uint32_t> AppendFile(const std::string& path, Env* env = nullptr);

  // Steals `other`'s events/locs/files onto the end of this set (file indexes and the
  // request index shifted), preserving AppendFile-call-order semantics — the sequential
  // fold step of a parallel per-shard pass 1.
  void Absorb(StreamTraceSet&& other);

  const Trace& skeleton() const { return skeleton_; }
  // The loader installs payloads into (and evicts them from) skeleton events in place;
  // each event is only ever touched by the one worker running its group's chunk.
  Trace* mutable_skeleton() { return &skeleton_; }

  const TraceEventLoc& loc(size_t event_index) const { return locs_[event_index]; }
  size_t num_events() const { return locs_.size(); }
  size_t num_files() const { return files_.size(); }
  const std::string& file_path(uint32_t file) const { return files_[file]; }

  // Event index of rid's request event; SIZE_MAX when the rid is untraced. (On a
  // malformed trace with duplicate rids the first occurrence wins; the balanced-trace
  // check rejects such an epoch before any payload is ever loaded.)
  size_t RequestIndex(RequestId rid) const;

  // Total payload bytes across all request events — what a fully materialized epoch
  // would keep resident; the budget bounds the streamed audit far below this.
  uint64_t total_request_payload_bytes() const { return total_request_payload_bytes_; }

 private:
  Trace skeleton_;
  std::vector<TraceEventLoc> locs_;
  std::vector<std::string> files_;
  std::unordered_map<RequestId, size_t> request_index_;
  uint64_t total_request_payload_bytes_ = 0;
};

}  // namespace orochi

#endif  // SRC_STREAM_TRACE_INDEX_H_

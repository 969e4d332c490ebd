#include "src/stream/reports_index.h"

#include <algorithm>
#include <utility>

#include "src/common/crc32c.h"
#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"

namespace orochi {

namespace {

// The chunk budget only meters loader admissions; this gauge exposes the residency the
// budget cannot see — whole record payloads materialized while pass 1 indexes them.
obs::Gauge* Pass1TransientGauge() {
  static obs::Gauge* const g = obs::MetricsRegistry::Default()->GetGauge(
      "orochi_pass1_transient_peak_bytes",
      "largest record payload transiently resident during pass-1 reports indexing");
  return g;
}

}  // namespace

Status StreamReportsSet::AppendFile(const std::string& path, Env* env) {
  ReportsRecordReader reader;
  if (Status st = reader.Open(path, env); !st.ok()) {
    return st;
  }
  const uint32_t file = static_cast<uint32_t>(files_.size());
  // Decode into a per-file Reports first (validation identical to ReadReportsFile, object
  // ids local to this file), then fold it onto the merged skeleton with the remap
  // AppendReports applied.
  Reports file_reports;
  std::vector<std::vector<OpLogEntryLoc>> file_locs;
  ReportsDecodeState state;
  uint8_t type = 0;
  std::string payload;
  while (true) {
    Result<bool> more = reader.Next(&type, &payload);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      break;
    }
    if (Status st = DecodeReportsRecordPayload(type, payload, path, &state, &file_reports);
        !st.ok()) {
      return st;
    }
    pass1_transient_peak_bytes_ =
        std::max<uint64_t>(pass1_transient_peak_bytes_, payload.size());
    if (type != wire::kReportsRecOpLog && type != wire::kReportsRecOpLogSegment) {
      continue;
    }
    // The decoder accepted the record, so the entry frames sit back-to-back after the
    // fixed prefix (12 bytes monolithic, 24 bytes segment); the spans must tile the
    // payload exactly as the decoded entries do. A segment record covers only the tail of
    // entries it just appended — earlier segments of the same object already shed theirs.
    uint32_t object = 0;
    size_t first_index = 0;  // Log index of the first entry this record covers.
    std::vector<OpLogEntrySpan> spans;
    if (type == wire::kReportsRecOpLog) {
      const unsigned char* p = reinterpret_cast<const unsigned char*>(payload.data());
      for (int i = 0; i < 4; i++) {
        object |= static_cast<uint32_t>(p[i]) << (8 * i);
      }
      spans = IndexOpLogEntries(payload);
    } else {
      OpLogSegmentHeader h;
      spans = IndexOpLogSegmentEntries(payload, &h);
      object = h.object;
      first_index = static_cast<size_t>(h.first_seqnum - 1);
    }
    file_locs.resize(file_reports.op_logs.size());
    std::vector<OpRecord>& log = file_reports.op_logs[object];
    if (first_index + spans.size() != log.size()) {
      return Status::Error("stream: op-log index drifted from the decoder in " + path);
    }
    std::vector<OpLogEntryLoc>& locs = file_locs[object];
    locs.reserve(log.size());
    for (const OpLogEntrySpan& span : spans) {
      locs.push_back({file, reader.last_payload_offset() + span.offset, span.bytes,
                      Crc32c(payload.data() + span.offset, span.bytes)});
    }
    // Shed the covered contents now that their locations are indexed, so at most one
    // record's contents are transiently resident during the pass.
    for (size_t i = first_index; i < log.size(); i++) {
      log[i].contents.clear();
      log[i].contents.shrink_to_fit();
    }
  }
  Pass1TransientGauge()->SetMax(static_cast<int64_t>(pass1_transient_peak_bytes_));
  file_locs.resize(file_reports.op_logs.size());

  ReportsMergeMap map;
  if (Status st = AppendReports(&skeleton_, file_reports, &map); !st.ok()) {
    // Merge-level errors (possible only past the first file) name the offending file so
    // shard-merge callers surface the same "path: reason" shape decode errors carry.
    return st.Prefixed(path + ": ");
  }
  locs_.resize(skeleton_.op_logs.size());
  for (size_t i = 0; i < file_locs.size(); i++) {
    std::vector<OpLogEntryLoc>& dst = locs_[map.object_remap[i]];
    for (const OpLogEntryLoc& loc : file_locs[i]) {
      dst.push_back(loc);
      total_log_payload_bytes_ += loc.bytes;
    }
  }
  files_.push_back(path);
  return Status::Ok();
}

Status StreamReportsSet::Absorb(StreamReportsSet&& other, const std::string& label) {
  ReportsMergeMap map;
  if (Status st = AppendReports(&skeleton_, other.skeleton_, &map); !st.ok()) {
    return st.Prefixed(label + ": ");
  }
  const uint32_t file_base = static_cast<uint32_t>(files_.size());
  for (std::string& path : other.files_) {
    files_.push_back(std::move(path));
  }
  locs_.resize(skeleton_.op_logs.size());
  for (size_t i = 0; i < other.locs_.size(); i++) {
    std::vector<OpLogEntryLoc>& dst = locs_[map.object_remap[i]];
    for (OpLogEntryLoc loc : other.locs_[i]) {
      loc.file += file_base;
      dst.push_back(loc);
    }
  }
  total_log_payload_bytes_ += other.total_log_payload_bytes_;
  pass1_transient_peak_bytes_ =
      std::max(pass1_transient_peak_bytes_, other.pass1_transient_peak_bytes_);
  other = StreamReportsSet();
  return Status::Ok();
}

Status SegmentedOpLogScanner::Scan(
    size_t object, const std::function<Status(const OpRecord&, uint64_t)>& fn) {
  io_failed_ = false;
  // Segments never exceed the budget (when one is set), so forward scans page within the
  // same ceiling re-execution honors; only a single entry larger than the whole budget
  // takes the oversized-chunk admission path.
  const uint64_t cap = budget_->max_bytes() > 0 && budget_->max_bytes() < kSegmentBytes
                           ? budget_->max_bytes()
                           : kSegmentBytes;
  const uint64_t n = set_->log_size(object);
  uint64_t seq = 1;
  while (seq <= n) {
    uint64_t count = 1;
    uint64_t bytes = set_->loc(object, seq).bytes;
    while (seq + count <= n) {
      uint64_t next = set_->loc(object, seq + count).bytes;
      if (bytes + next > cap) {
        break;
      }
      bytes += next;
      count++;
    }
    budget_->Acquire(bytes);
    loader_->OnChunkResident(bytes);
    Status load = loader_->Load(set_, object, seq, count);
    Status fn_status;
    if (load.ok()) {
      const std::vector<OpRecord>& log = set_->skeleton().op_logs[object];
      for (uint64_t i = 0; i < count && fn_status.ok(); i++) {
        fn_status = fn(log[static_cast<size_t>(seq - 1 + i)], seq + i);
      }
      loader_->Evict(set_, object, seq, count);
    }
    loader_->OnChunkEvicted(bytes);
    budget_->Release(bytes);
    if (!load.ok()) {
      io_failed_ = true;
      return load;
    }
    if (!fn_status.ok()) {
      return fn_status;
    }
    seq += count;
  }
  return Status::Ok();
}

}  // namespace orochi

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
  // Index into a fresh one-file set first (validation identical to ReadReportsFile,
  // object ids local to this file), then fold it in through Absorb's merge.
  StreamReportsSet fresh;
  fresh.files_.push_back(path);
  Reports& reports = fresh.skeleton_;
  ReportsDecodeState state;
  OpLogRecordSpans spans;
  uint8_t type = 0;
  std::string_view payload;
  while (true) {
    Result<bool> more = reader.Next(&type, &payload);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      break;
    }
    if (Status st =
            DecodeReportsRecordPayload(type, payload, path, &state, &reports, &spans);
        !st.ok()) {
      return st;
    }
    fresh.pass1_transient_peak_bytes_ =
        std::max<uint64_t>(fresh.pass1_transient_peak_bytes_, payload.size());
    if (spans.entries.empty()) {
      continue;
    }
    fresh.locs_.resize(reports.op_logs.size());
    std::vector<OpLogEntryLoc>& locs = fresh.locs_[spans.object];
    std::vector<OpRecord>& log = reports.op_logs[spans.object];
    for (size_t k = 0; k < spans.entries.size(); k++) {
      const OpLogEntrySpan& span = spans.entries[k];
      locs.push_back({0, reader.last_payload_offset() + span.offset, span.bytes,
                      Crc32c(payload.data() + span.offset, span.bytes)});
      fresh.total_log_payload_bytes_ += span.bytes;
      // Shed the contents now that the location is indexed, so at most one record's
      // contents are transiently resident during the pass.
      std::string().swap(log[spans.first + k].contents);
    }
  }
  Pass1TransientGauge()->SetMax(static_cast<int64_t>(fresh.pass1_transient_peak_bytes_));
  fresh.locs_.resize(reports.op_logs.size());
  return Absorb(std::move(fresh), path);
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

std::vector<OpLogSegment> SegmentedOpLogScanner::Segments(size_t object) const {
  // Segments never exceed the budget (when one is set), so scans page within the same
  // ceiling re-execution honors; only a single entry larger than the whole budget takes
  // the oversized-chunk admission path.
  const uint64_t cap = budget_->max_bytes() > 0 && budget_->max_bytes() < kSegmentBytes
                           ? budget_->max_bytes()
                           : kSegmentBytes;
  const uint64_t n = set_->log_size(object);
  std::vector<OpLogSegment> out;
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
    out.push_back({seq, count});
    seq += count;
  }
  return out;
}

Status SegmentedOpLogScanner::ScanSegment(size_t object, OpLogSegment segment,
                                          const OpLogEntryFn& fn, bool* load_failed) {
  const uint64_t first = segment.first_seqnum;
  uint64_t bytes = 0;
  for (uint64_t i = 0; i < segment.count; i++) {
    bytes += set_->loc(object, first + i).bytes;
  }
  budget_->Acquire(bytes);
  loader_->OnChunkResident(bytes);
  Status load = loader_->Load(set_, object, first, segment.count);
  Status fn_status;
  if (load.ok()) {
    const std::vector<OpRecord>& log = set_->skeleton().op_logs[object];
    for (uint64_t i = 0; i < segment.count && fn_status.ok(); i++) {
      fn_status = fn(log[static_cast<size_t>(first - 1 + i)], first + i);
    }
    loader_->Evict(set_, object, first, segment.count);
  }
  loader_->OnChunkEvicted(bytes);
  budget_->Release(bytes);
  if (!load.ok()) {
    if (load_failed != nullptr) {
      *load_failed = true;
    }
    return load;
  }
  return fn_status;
}

}  // namespace orochi

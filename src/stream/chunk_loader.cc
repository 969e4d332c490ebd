#include "src/stream/chunk_loader.h"

#include <cstdlib>
#include <string>
#include <utility>

#include <chrono>

#include "src/common/crc32c.h"
#include "src/common/strings.h"
#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"
#include "src/stream/reports_index.h"

namespace orochi {

namespace {

// A spill file whose bytes no longer match what pass 1 indexed: corruption at `offset`.
Status ChangedDuringAudit(const std::string& path, uint64_t offset,
                          const std::string& what) {
  return Status::Error(StatusCode::kCorruption,
                       "stream: " + path + " changed during the audit: " + what)
      .At(path, offset);
}

// Budget-gate instruments: every chunk admission in the streamed audit funnels through
// ChunkBudget::Acquire, so this is where stalls and oversized one-at-a-time admissions
// become visible.
struct BudgetMetrics {
  obs::Counter* acquires;
  obs::Counter* waits;
  obs::Counter* oversized;
  obs::Histogram* wait_seconds;
  obs::Gauge* used_bytes;
  obs::Gauge* peak_bytes;
  obs::Gauge* largest_acquire;

  static BudgetMetrics* Get() {
    static BudgetMetrics* const m = [] {
      auto* registry = obs::MetricsRegistry::Default();
      auto* out = new BudgetMetrics();
      out->acquires = registry->GetCounter("orochi_budget_acquires_total",
                                           "chunk admissions through the audit budget");
      out->waits = registry->GetCounter(
          "orochi_budget_waits_total",
          "chunk admissions that had to wait for resident bytes to drain");
      out->oversized = registry->GetCounter(
          "orochi_budget_oversized_admissions_total",
          "chunks larger than the whole budget, admitted one-at-a-time");
      out->wait_seconds = registry->GetHistogram(
          "orochi_budget_wait_seconds", "time spent blocked waiting for budget headroom",
          {0.0001, 0.001, 0.01, 0.1, 1, 10});
      out->used_bytes = registry->GetGauge("orochi_budget_used_bytes",
                                           "resident chunk bytes currently admitted");
      out->peak_bytes = registry->GetGauge("orochi_budget_peak_bytes",
                                           "high-water mark of resident chunk bytes");
      out->largest_acquire = registry->GetGauge(
          "orochi_budget_largest_acquire_bytes", "largest single chunk admission seen");
      return out;
    }();
    return m;
  }
};

// Pread-coalescing instruments shared by both File loaders: `issued` counts preads the
// loaders actually performed, `coalesced` counts the additional preads merging adjacent
// payload runs avoided (v3 op-log segmentation splits formerly contiguous entry runs;
// bridging its ~37-byte framing gap stitches them back into one read).
struct ReadMetrics {
  obs::Counter* issued;
  obs::Counter* coalesced;

  static ReadMetrics* Get() {
    static ReadMetrics* const m = [] {
      auto* registry = obs::MetricsRegistry::Default();
      auto* out = new ReadMetrics();
      out->issued = registry->GetCounter("orochi_chunk_reads_issued_total",
                                         "preads issued by the chunk loaders");
      out->coalesced = registry->GetCounter(
          "orochi_chunk_reads_coalesced_total",
          "additional preads avoided by merging adjacent payload runs (segment-gap "
          "bridging included)");
      return out;
    }();
    return m;
  }
};

}  // namespace

Result<uint64_t> ResolveAuditBudget(const AuditOptions& options) {
  if (options.max_resident_bytes > 0) {
    return static_cast<uint64_t>(options.max_resident_bytes);
  }
  if (const char* env = std::getenv("OROCHI_AUDIT_BUDGET")) {
    Result<uint64_t> v = ParseUint64(env);
    if (!v.ok()) {
      // A malformed budget must not silently audit unbounded: it is a config error.
      return Status::Error(StatusCode::kConfig, "config: OROCHI_AUDIT_BUDGET='" +
                                                    std::string(env) +
                                                    "' is not a valid byte budget (" +
                                                    v.error() + ")");
    }
    return v;  // 0 keeps its documented meaning: unlimited.
  }
  return static_cast<uint64_t>(0);
}

void ChunkBudget::Acquire(uint64_t bytes) {
  BudgetMetrics* metrics = BudgetMetrics::Get();
  metrics->acquires->Inc();
  if (max_ != 0 && bytes > max_) {
    metrics->oversized->Inc();  // Admitted solo via the used_ == 0 arm below.
  }
  std::unique_lock<std::mutex> lock(mu_);
  const auto admitted = [&] { return used_ == 0 || max_ == 0 || used_ + bytes <= max_; };
  if (!admitted()) {
    metrics->waits->Inc();
    const auto wait_start = std::chrono::steady_clock::now();
    cv_.wait(lock, admitted);
    metrics->wait_seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start)
            .count());
  }
  used_ += bytes;
  if (used_ > peak_) {
    peak_ = used_;
  }
  if (bytes > largest_acquire_) {
    largest_acquire_ = bytes;
  }
  metrics->used_bytes->Set(static_cast<int64_t>(used_));
  metrics->peak_bytes->SetMax(static_cast<int64_t>(peak_));
  metrics->largest_acquire->SetMax(static_cast<int64_t>(largest_acquire_));
}

void ChunkBudget::Release(uint64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    used_ -= bytes;
    BudgetMetrics::Get()->used_bytes->Set(static_cast<int64_t>(used_));
  }
  cv_.notify_all();
}

uint64_t ChunkBudget::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

uint64_t ChunkBudget::largest_acquire_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return largest_acquire_;
}

Status TraceChunkLoader::LoadBatch(const StreamTraceSet& set,
                                   const std::vector<size_t>& indexes, Trace* skeleton) {
  for (size_t i = 0; i < indexes.size(); i++) {
    if (Status st = Load(set, indexes[i], &skeleton->events[indexes[i]]); !st.ok()) {
      for (size_t j = 0; j < i; j++) {
        Evict(set, indexes[j], &skeleton->events[indexes[j]]);
      }
      return st;
    }
  }
  return Status::Ok();
}

Result<std::shared_ptr<ReadableFile>> SpillFileTable::Get(uint32_t file, size_t num_files,
                                                          const std::string& path,
                                                          const char* use) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file >= files_.size()) {
    files_.resize(num_files);
  }
  if (files_[file] == nullptr) {
    Result<std::unique_ptr<ReadableFile>> opened = env_->OpenRead(path);
    if (!opened.ok()) {
      return opened.status().Prefixed("stream: cannot reopen " + path + " for " + use +
                                      ": ");
    }
    files_[file] = std::move(opened).value();
  }
  return files_[file];
}

FileTraceChunkLoader::FileTraceChunkLoader(const StreamTraceSet* set, Env* env)
    : files_(env, set->num_files()) {}

FileTraceChunkLoader::~FileTraceChunkLoader() = default;

Status FileTraceChunkLoader::InstallPayload(const StreamTraceSet& set, size_t index,
                                            TraceEvent* event, const char* payload,
                                            size_t n) {
  const TraceEventLoc& loc = set.loc(index);
  if (Crc32c(payload, n) != loc.crc) {
    return ChangedDuringAudit(set.file_path(loc.file), loc.offset,
                              "payload at offset " + std::to_string(loc.offset) +
                                  " failed checksum");
  }
  Result<TraceEvent> decoded = DecodeTraceEventPayload(loc.record_type, {payload, n});
  if (!decoded.ok()) {
    return ChangedDuringAudit(set.file_path(loc.file), loc.offset, decoded.error());
  }
  if (decoded.value().rid != event->rid) {
    return ChangedDuringAudit(set.file_path(loc.file), loc.offset,
                              "rid mismatch at offset " + std::to_string(loc.offset));
  }
  if (event->kind == TraceEvent::Kind::kRequest) {
    event->params = std::move(decoded.value().params);
  } else {
    event->body = std::move(decoded.value().body);
  }
  return Status::Ok();
}

Status FileTraceChunkLoader::Load(const StreamTraceSet& set, size_t index,
                                  TraceEvent* event) {
  const TraceEventLoc& loc = set.loc(index);
  Result<std::shared_ptr<ReadableFile>> file =
      files_.Get(loc.file, set.num_files(), set.file_path(loc.file), "chunk load");
  if (!file.ok()) {
    return file.status();
  }
  // Uninitialized: the read overwrites every byte, and decoding copies the params or
  // body straight out of it.
  const size_t n = static_cast<size_t>(loc.bytes);
  std::unique_ptr<char[]> payload(new char[n]);
  ReadMetrics::Get()->issued->Inc();
  if (Status st = files_.env()
                      ->StartReadAt(file.value().get(), set.file_path(loc.file),
                                    loc.offset, n, payload.get())
                      ->Wait();
      !st.ok()) {
    return st;
  }
  return InstallPayload(set, index, event, payload.get(), n);
}

Status FileTraceChunkLoader::LoadBatch(const StreamTraceSet& set,
                                       const std::vector<size_t>& indexes,
                                       Trace* skeleton) {
  // Sort by file position, then carve into spans whose payloads sit at most
  // kCoalesceGapBytes apart — one pread per span instead of one per event. The trace
  // spill interleaves request and response records, so a chunk's request payloads are
  // adjacent exactly when its requests arrived back-to-back.
  std::vector<size_t> sorted = indexes;
  std::sort(sorted.begin(), sorted.end(), [&set](size_t a, size_t b) {
    const TraceEventLoc& la = set.loc(a);
    const TraceEventLoc& lb = set.loc(b);
    return la.file != lb.file ? la.file < lb.file : la.offset < lb.offset;
  });
  std::vector<size_t> installed;
  auto fail = [&](Status st) {
    for (size_t index : installed) {
      Evict(set, index, &skeleton->events[index]);
    }
    return st;
  };
  size_t span_start = 0;
  std::unique_ptr<char[]> buf;
  size_t buf_bytes = 0;
  while (span_start < sorted.size()) {
    const TraceEventLoc& head = set.loc(sorted[span_start]);
    size_t span_len = 1;
    while (span_start + span_len < sorted.size()) {
      const TraceEventLoc& prev = set.loc(sorted[span_start + span_len - 1]);
      const TraceEventLoc& next = set.loc(sorted[span_start + span_len]);
      const uint64_t prev_end = prev.offset + prev.bytes;
      if (next.file != head.file || next.offset < prev_end ||
          next.offset - prev_end > kCoalesceGapBytes) {
        break;
      }
      span_len++;
    }
    Result<std::shared_ptr<ReadableFile>> file =
        files_.Get(head.file, set.num_files(), set.file_path(head.file), "chunk load");
    if (!file.ok()) {
      return fail(file.status());
    }
    const TraceEventLoc& tail = set.loc(sorted[span_start + span_len - 1]);
    const size_t span_bytes = static_cast<size_t>(tail.offset + tail.bytes - head.offset);
    if (span_bytes > buf_bytes) {
      buf.reset(new char[span_bytes]);
      buf_bytes = span_bytes;
    }
    ReadMetrics::Get()->issued->Inc();
    ReadMetrics::Get()->coalesced->Inc(span_len - 1);
    if (Status st = files_.env()
                        ->StartReadAt(file.value().get(), set.file_path(head.file),
                                      head.offset, span_bytes, buf.get())
                        ->Wait();
        !st.ok()) {
      return fail(st);
    }
    for (size_t k = 0; k < span_len; k++) {
      const size_t index = sorted[span_start + k];
      const TraceEventLoc& loc = set.loc(index);
      if (Status st = InstallPayload(set, index, &skeleton->events[index],
                                     buf.get() + (loc.offset - head.offset),
                                     static_cast<size_t>(loc.bytes));
          !st.ok()) {
        return fail(st);
      }
      installed.push_back(index);
    }
    span_start += span_len;
  }
  return Status::Ok();
}

void FileTraceChunkLoader::Evict(const StreamTraceSet& set, size_t index,
                                 TraceEvent* event) {
  (void)set;
  (void)index;
  if (event->kind == TraceEvent::Kind::kRequest) {
    event->params = RequestParams{};
  } else {
    event->body.clear();
    event->body.shrink_to_fit();
  }
}

FileReportsChunkLoader::FileReportsChunkLoader(const StreamReportsSet* set, Env* env)
    : files_(env, set->num_files()) {}

FileReportsChunkLoader::~FileReportsChunkLoader() = default;

Status FileReportsChunkLoader::Load(StreamReportsSet* set, size_t object,
                                    uint64_t first_seqnum, uint64_t count) {
  // Split the range into maximal near-contiguous per-file runs — one pread per run.
  // Entries merged from different shard files never coalesce across the file boundary,
  // and a gap of up to kCoalesceGapBytes within one file is bridged (v3 segmented spills
  // put ~37 bytes of record + segment framing between entries that v2 wrote
  // back-to-back; the gap bytes are read and discarded).
  uint64_t start = first_seqnum;
  const uint64_t end = first_seqnum + count;
  while (start < end) {
    const OpLogEntryLoc& head = set->loc(object, start);
    uint64_t run = 1;
    while (start + run < end) {
      const OpLogEntryLoc& prev = set->loc(object, start + run - 1);
      const OpLogEntryLoc& next = set->loc(object, start + run);
      const uint64_t prev_end = prev.offset + prev.bytes;
      if (next.file != head.file || next.offset < prev_end ||
          next.offset - prev_end > kCoalesceGapBytes) {
        break;
      }
      run++;
    }
    if (Status st = LoadRun(set, object, start, run); !st.ok()) {
      Evict(set, object, first_seqnum, start - first_seqnum);
      return st;
    }
    start += run;
  }
  return Status::Ok();
}

Status FileReportsChunkLoader::LoadRun(StreamReportsSet* set, size_t object,
                                       uint64_t first_seqnum, uint64_t count) {
  const OpLogEntryLoc& head = set->loc(object, first_seqnum);
  const OpLogEntryLoc& tail = set->loc(object, first_seqnum + count - 1);
  const size_t span = static_cast<size_t>(tail.offset + tail.bytes - head.offset);
  Result<std::shared_ptr<ReadableFile>> file = files_.Get(
      head.file, set->num_files(), set->file_path(head.file), "op-log load");
  if (!file.ok()) {
    return file.status();
  }
  std::string frames(span, '\0');
  ReadMetrics::Get()->issued->Inc();
  ReadMetrics::Get()->coalesced->Inc(count - 1);
  if (Status st = files_.env()
                      ->StartReadAt(file.value().get(), set->file_path(head.file),
                                    head.offset, frames.size(),
                                    frames.empty() ? nullptr : &frames[0])
                      ->Wait();
      !st.ok()) {
    return st;
  }
  // Verify each frame against its pass-1 CRC, then decode and check it still matches the
  // skeleton entry it claims to be — a reports file mutated mid-audit surfaces as an I/O
  // error, never as misattribution.
  std::vector<OpRecord>& log = set->mutable_skeleton()->op_logs[object];
  for (uint64_t i = 0; i < count; i++) {
    const OpLogEntryLoc& loc = set->loc(object, first_seqnum + i);
    const size_t pos = static_cast<size_t>(loc.offset - head.offset);
    OpRecord decoded;
    Status st = Status::Ok();
    if (Crc32c(frames.data() + pos, static_cast<size_t>(loc.bytes)) != loc.crc) {
      st = Status::Error("checksum");
    } else {
      st = DecodeOpLogEntry(frames.data() + pos, static_cast<size_t>(loc.bytes),
                            &decoded);
    }
    OpRecord& entry = log[static_cast<size_t>(first_seqnum - 1 + i)];
    if (!st.ok() || decoded.rid != entry.rid || decoded.opnum != entry.opnum ||
        decoded.type != entry.type) {
      Evict(set, object, first_seqnum, i);
      return ChangedDuringAudit(set->file_path(head.file), loc.offset,
                                "op-log entry mismatch at offset " +
                                    std::to_string(loc.offset));
    }
    entry.contents = std::move(decoded.contents);
  }
  return Status::Ok();
}

void FileReportsChunkLoader::Evict(StreamReportsSet* set, size_t object,
                                   uint64_t first_seqnum, uint64_t count) {
  std::vector<OpRecord>& log = set->mutable_skeleton()->op_logs[object];
  for (uint64_t i = 0; i < count; i++) {
    OpRecord& entry = log[static_cast<size_t>(first_seqnum - 1 + i)];
    entry.contents.clear();
    entry.contents.shrink_to_fit();
  }
}

}  // namespace orochi

#include "src/objects/wire_format.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/io_env.h"
#include "src/lang/value.h"
#include "src/objects/wire_primitives.h"

namespace orochi {

namespace {

using wire_primitives::Cursor;
using wire_primitives::MakeCursor;
using wire_primitives::PutF64;
using wire_primitives::PutStr;
using wire_primitives::PutU32;
using wire_primitives::PutU64;
using wire_primitives::PutU8;
using wire_primitives::StrWireBytes;

// Receives one record of a section being enumerated: its type and payload.
using RecordFn = std::function<void(uint8_t, const std::string&)>;

// A corrupt length prefix must not make the reader attempt a multi-gigabyte allocation.
constexpr uint64_t kMaxRecordBytes = 1ull << 30;

constexpr size_t kHeaderBytes = wire::kEnvelopeHeaderBytes;
constexpr size_t kRecordFrameBytesV2 = wire::kRecordFrameBytesV2;

// Trace section record types (public aliases live in wire:: for the point reader).
constexpr uint8_t kRecRequest = wire::kTraceRecRequest;
constexpr uint8_t kRecResponse = wire::kTraceRecResponse;
constexpr uint8_t kRecShardInfo = wire::kTraceRecShardInfo;
// Reports section record types (public aliases live in wire:: for the streaming index).
constexpr uint8_t kRecObject = wire::kReportsRecObject;
constexpr uint8_t kRecOpLog = wire::kReportsRecOpLog;
constexpr uint8_t kRecGroup = wire::kReportsRecGroup;
constexpr uint8_t kRecOpCounts = wire::kReportsRecOpCounts;
constexpr uint8_t kRecNondet = wire::kReportsRecNondet;
constexpr uint8_t kRecOpLogSegment = wire::kReportsRecOpLogSegment;
// rid + opnum + type + contents length prefix: the smallest encodable op-log entry.
constexpr size_t kOpLogEntryMinBytes = 8 + 4 + 1 + 4;
// State section record types.
constexpr uint8_t kRecRegisters = 1;
constexpr uint8_t kRecKv = 2;
constexpr uint8_t kRecDbTable = 3;
// Manifest section record types.
constexpr uint8_t kRecManifestEpoch = 1;
constexpr uint8_t kRecManifestShard = 2;

}  // namespace

namespace wire {

std::string EnvelopeHeader(Section section) {
  std::string h;
  h.append(kMagic, sizeof(kMagic));
  PutU32(&h, kFormatVersion);
  PutU8(&h, static_cast<uint8_t>(section));
  return h;
}

Status CheckEnvelopeHeader(const char* data, size_t n, Section want,
                           const std::string& path) {
  if (n < kEnvelopeHeaderBytes) {
    return Status::Error(StatusCode::kCorruption, "wire: truncated header in " + path)
        .At(path, 0);
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("wire: bad magic in " + path).At(path, 0);
  }
  Cursor c{reinterpret_cast<const unsigned char*>(data) + sizeof(kMagic),
           kEnvelopeHeaderBytes - sizeof(kMagic)};
  uint32_t v = 0;
  uint8_t section = 0;
  (void)c.TakeU32(&v);
  (void)c.TakeU8(&section);
  if (v < kMinFormatVersion || v > kFormatVersion) {
    return Status::Error("wire: unsupported format version " + std::to_string(v) + " in " +
                         path)
        .At(path, 0);
  }
  if (section != static_cast<uint8_t>(want)) {
    return Status::Error("wire: " + path + " holds section kind " + std::to_string(section) +
                         ", expected " + std::to_string(static_cast<int>(want)))
        .At(path, 0);
  }
  return Status::Ok();
}

namespace {

// The v2 frame preceding a payload: type, length, CRC32C(payload).
std::string RecordFrame(uint8_t type, const char* payload, size_t n) {
  std::string frame;
  PutU8(&frame, type);
  PutU64(&frame, n);
  PutU32(&frame, Crc32c(payload, n));
  return frame;
}

// The footer payload: the non-end record count and the byte offset where the end
// record's own frame begins, so a reader proves it saw the whole section.
std::string Footer(uint64_t records, uint64_t end_offset) {
  std::string footer;
  PutU64(&footer, records);
  PutU64(&footer, end_offset);
  return footer;
}

}  // namespace

void AppendRecordFrame(std::string* out, uint8_t type, const std::string& payload) {
  out->append(RecordFrame(type, payload.data(), payload.size()));
  out->append(payload);
}

bool ParseRecordFrameV2(const char* data, size_t n, uint8_t* type, uint64_t* len,
                        uint32_t* crc) {
  if (n < kRecordFrameBytesV2) {
    return false;
  }
  Cursor c{reinterpret_cast<const unsigned char*>(data), n};
  return c.TakeU8(type) && c.TakeU64(len) && c.TakeU32(crc);
}

void AppendEndRecordFrame(std::string* out, uint64_t records, uint64_t end_offset) {
  AppendRecordFrame(out, kEndRecord, Footer(records, end_offset));
}

Status SectionWriter::Open(Env* env, const std::string& path, Section section) {
  if (Status st = atomic_.Open(env, path); !st.ok()) {
    error_ = st;
    return st;
  }
  const std::string header = EnvelopeHeader(section);
  Write(header.data(), header.size());
  return error_;
}

Status SectionWriter::Append(uint8_t type, const std::string& payload) {
  const std::string frame = RecordFrame(type, payload.data(), payload.size());
  Write(frame.data(), frame.size());
  Write(payload.data(), payload.size());
  records_++;
  return error_;
}

Status SectionWriter::Commit() {
  const std::string footer = Footer(records_, bytes_);
  const std::string frame = RecordFrame(kEndRecord, footer.data(), footer.size());
  Write(frame.data(), frame.size());
  Write(footer.data(), footer.size());
  return error_.ok() ? atomic_.Commit() : error_;
}

void SectionWriter::Write(const char* data, size_t n) {
  if (error_.ok()) {
    error_ = atomic_.file() == nullptr ? Status::Error("wire: SectionWriter is not open")
                                       : atomic_.file()->Append(data, n);
  }
  bytes_ += n;
}

// Record stream over one open section file: validates the envelope header on Open, then
// yields records until the end record, verifying per-record CRCs and the footer. The file
// is read forward through one kReadWindowBytes window: a refill keeps the window's unread
// tail and reads the rest in one call, so a record that fits costs no read of its own and
// its payload is checked and decoded in place. A payload larger than the window is read
// into its own buffer. All reads retry transient faults (ReadUpToAt); every error is
// located in the file at a byte offset, so corruption localizes to an exact record.
class RecordStream {
 public:
  Status Open(Env* env, const std::string& path, Section want) {
    path_ = path;
    Result<std::unique_ptr<ReadableFile>> f = ResolveEnv(env)->OpenRead(path);
    if (!f.ok()) {
      return f.status();
    }
    file_ = std::move(f).value();
    window_.reset(new char[kReadWindowBytes]);
    Result<size_t> got = Fill(0, kEnvelopeHeaderBytes);
    if (!got.ok()) {
      return got.status();
    }
    if (Status st = CheckEnvelopeHeader(At(0), got.value(), want, path_); !st.ok()) {
      return st;
    }
    pos_ = kEnvelopeHeaderBytes;
    return Status::Ok();
  }

  // True: *type/*payload hold the next record, the payload viewing this stream's buffers
  // until the next call. False: end record consumed and validated (footer counts match,
  // no trailing bytes).
  Result<bool> Next(uint8_t* type, std::string_view* payload) {
    const uint64_t frame_start = pos_;
    Result<size_t> got = Fill(frame_start, kRecordFrameBytesV2);
    if (!got.ok()) {
      return got.status();
    }
    uint64_t len = 0;
    uint32_t crc = 0;
    if (!ParseRecordFrameV2(At(frame_start), got.value(), type, &len, &crc)) {
      return Corrupt(
          "wire: truncated record frame at offset " + std::to_string(frame_start),
          frame_start);
    }
    if (*type == kEndRecord) {
      return FinishAtEnd(frame_start, len, crc);
    }
    if (len > kMaxRecordBytes) {
      return Corrupt("wire: record length " + std::to_string(len) + " exceeds limit",
                     frame_start);
    }
    const uint64_t payload_offset = frame_start + kRecordFrameBytesV2;
    const size_t n = static_cast<size_t>(len);
    Result<size_t> body = ReadPayload(payload_offset, n);
    if (!body.ok()) {
      return body.status();
    }
    if (body.value() != n) {
      return Corrupt(
          "wire: truncated record payload at offset " + std::to_string(payload_offset),
          payload_offset);
    }
    const char* data = n > kReadWindowBytes ? large_.get() : At(payload_offset);
    const uint32_t payload_crc = Crc32c(data, n);
    if (payload_crc != crc) {
      return Corrupt("wire: crc mismatch in record " + std::to_string(records_) +
                         " (type " + std::to_string(*type) + ") at offset " +
                         std::to_string(frame_start),
                     frame_start);
    }
    pos_ = payload_offset + n;
    records_++;
    last_payload_offset_ = payload_offset;
    last_crc_ = payload_crc;
    *payload = std::string_view(data, n);
    return true;
  }

  const std::string& path() const { return path_; }
  uint64_t last_payload_offset() const { return last_payload_offset_; }
  uint32_t last_crc() const { return last_crc_; }

 private:
  // Makes file bytes [offset, offset + n) resident in the window (n <= kReadWindowBytes,
  // offset within or just past the window, as a forward scan guarantees) and returns how
  // many of them the file holds: fewer than n only when it ends first.
  Result<size_t> Fill(uint64_t offset, size_t n) {
    const uint64_t window_end = window_start_ + window_len_;
    if (offset + n <= window_end) {
      return n;
    }
    const size_t keep = static_cast<size_t>(window_end - offset);
    std::memmove(window_.get(), At(offset), keep);
    window_start_ = offset;
    window_len_ = keep;
    Result<size_t> got = ReadUpToAt(file_.get(), path_, offset + keep,
                                    kReadWindowBytes - keep, window_.get() + keep);
    if (!got.ok()) {
      return got.status();
    }
    window_len_ += got.value();
    return std::min(n, window_len_);
  }

  // Reads the n-byte payload at `offset`: through the window when it fits, else into
  // large_, after which the window restarts just past the payload. Returns the bytes the
  // file holds, as Fill does.
  Result<size_t> ReadPayload(uint64_t offset, size_t n) {
    if (n <= kReadWindowBytes) {
      return Fill(offset, n);
    }
    large_.reset(new char[n]);
    window_start_ = offset + n;
    window_len_ = 0;
    return ReadUpToAt(file_.get(), path_, offset, n, large_.get());
  }

  const char* At(uint64_t offset) const {
    return window_.get() + static_cast<size_t>(offset - window_start_);
  }

  // A framing or checksum failure: "<what> in <path>", located at `offset` of the file.
  Status Corrupt(const std::string& what, uint64_t offset) const {
    return Status::Error(StatusCode::kCorruption, what + " in " + path_).At(path_, offset);
  }

  Result<bool> FinishAtEnd(uint64_t frame_start, uint64_t len, uint32_t crc) {
    if (len != kFooterPayloadBytes) {
      return Corrupt("wire: malformed end record at offset " + std::to_string(frame_start),
                     frame_start);
    }
    const uint64_t footer_offset = frame_start + kRecordFrameBytesV2;
    Result<size_t> got = Fill(footer_offset, kFooterPayloadBytes);
    if (!got.ok()) {
      return got.status();
    }
    if (got.value() != kFooterPayloadBytes) {
      return Corrupt("wire: truncated footer", footer_offset);
    }
    const char* footer = At(footer_offset);
    if (Crc32c(footer, kFooterPayloadBytes) != crc) {
      return Status::Error(StatusCode::kCorruption,
                           "wire: crc mismatch in footer of " + path_)
          .At(path_, frame_start);
    }
    Cursor c{reinterpret_cast<const unsigned char*>(footer), kFooterPayloadBytes};
    uint64_t record_count = 0, end_offset = 0;
    (void)c.TakeU64(&record_count);
    (void)c.TakeU64(&end_offset);
    if (record_count != records_) {
      return Corrupt("wire: footer record count " + std::to_string(record_count) + " != " +
                         std::to_string(records_) + " records read",
                     frame_start);
    }
    if (end_offset != frame_start) {
      return Corrupt("wire: footer end-offset mismatch", frame_start);
    }
    // First byte past the section.
    const uint64_t after = footer_offset + kFooterPayloadBytes;
    Result<size_t> trailing = Fill(after, 1);
    if (!trailing.ok()) {
      return trailing.status();
    }
    if (trailing.value() != 0) {
      return Corrupt("wire: trailing bytes after end record", after);
    }
    return false;
  }

  std::unique_ptr<ReadableFile> file_;
  std::string path_;
  std::unique_ptr<char[]> window_;  // kReadWindowBytes of file bytes from window_start_.
  uint64_t window_start_ = 0;
  size_t window_len_ = 0;           // Valid bytes in window_.
  std::unique_ptr<char[]> large_;   // The last payload larger than the window.
  uint64_t pos_ = 0;      // File offset of the next record frame.
  uint64_t records_ = 0;  // Non-end records yielded so far.
  uint64_t last_payload_offset_ = 0;
  uint32_t last_crc_ = 0;
};

}  // namespace wire

namespace {

// --- trace event payloads ---

uint8_t TraceEventRecordType(const TraceEvent& e) {
  return e.kind == TraceEvent::Kind::kRequest ? kRecRequest : kRecResponse;
}

void EncodeTraceEvent(const TraceEvent& e, std::string* out) {
  out->clear();
  PutU64(out, e.rid);
  if (e.kind == TraceEvent::Kind::kRequest) {
    PutStr(out, e.script);
    PutU32(out, static_cast<uint32_t>(e.params.size()));
    for (const auto& [k, v] : e.params) {
      PutStr(out, k);
      PutStr(out, v);
    }
  } else {
    PutStr(out, e.body);
  }
}

// The one trace-record decoder. kSkeleton steps over the parameter and body strings
// (SkipStr) where kFull copies them out, so both modes fail on exactly the same bytes.
Result<TraceEvent> DecodeTraceEvent(uint8_t type, std::string_view payload,
                                    const std::string& path, TraceDecode decode) {
  const bool keep = decode == TraceDecode::kFull;
  TraceEvent e;
  Cursor c = MakeCursor(payload);
  if (type == kRecRequest) {
    e.kind = TraceEvent::Kind::kRequest;
    uint32_t nparams = 0;
    if (!c.TakeU64(&e.rid) || !c.TakeStr(&e.script) || !c.TakeU32(&nparams)) {
      return Result<TraceEvent>::Error("wire: malformed request record in " + path);
    }
    for (uint32_t i = 0; i < nparams; i++) {
      std::string k, v;
      const bool taken =
          keep ? c.TakeStr(&k) && c.TakeStr(&v) : c.SkipStr() && c.SkipStr();
      if (!taken) {
        return Result<TraceEvent>::Error("wire: malformed request params in " + path);
      }
      if (keep) {
        e.params[std::move(k)] = std::move(v);
      }
    }
  } else if (type == kRecResponse) {
    e.kind = TraceEvent::Kind::kResponse;
    if (!c.TakeU64(&e.rid) || !(keep ? c.TakeStr(&e.body) : c.SkipStr())) {
      return Result<TraceEvent>::Error("wire: malformed response record in " + path);
    }
  } else {
    return Result<TraceEvent>::Error("wire: unknown trace record type " +
                                     std::to_string(type) + " in " + path);
  }
  if (!c.AtEnd()) {
    return Result<TraceEvent>::Error("wire: trailing bytes in trace record in " + path);
  }
  return e;
}

// --- op-log entry codec ---
// One entry: rid · opnum · type · length-prefixed contents. Monolithic and segmented
// op-log records, and the point reads of single entries, all go through this pair.

void EncodeOpLogEntry(const OpRecord& op, std::string* out) {
  PutU64(out, op.rid);
  PutU32(out, op.opnum);
  PutU8(out, static_cast<uint8_t>(op.type));
  PutStr(out, op.contents);
}

enum class EntryParse { kOk, kMalformed, kUnknownType };

// Parses one entry at *c into *op. kUnknownType (the raw byte in *optype) only once every
// field parsed, so callers check framing before the type.
EntryParse TakeOpLogEntry(Cursor* c, OpRecord* op, uint8_t* optype) {
  if (!c->TakeU64(&op->rid) || !c->TakeU32(&op->opnum) || !c->TakeU8(optype) ||
      !c->TakeStr(&op->contents)) {
    return EntryParse::kMalformed;
  }
  if (*optype > static_cast<uint8_t>(StateOpType::kDbOp)) {
    return EntryParse::kUnknownType;
  }
  op->type = static_cast<StateOpType>(*optype);
  return EntryParse::kOk;
}

// Encodes object `object`'s log. A log whose entry frames fit kMaxOpLogSegmentBytes is
// one monolithic record (u32 object, u64 count, entries), byte-identical to a v2 writer.
// A hot object splits into byte-capped segment records (u32 object, u32 segment_seq,
// u64 first_seqnum, u64 count, entries) so no reader ever has to hold the whole log's
// record resident; a single entry over the cap rides alone.
void EncodeOpLogRecords(uint32_t object, const std::vector<OpRecord>& log,
                        const RecordFn& fn) {
  uint64_t total_entry_bytes = 0;
  for (const OpRecord& op : log) {
    total_entry_bytes += kOpLogEntryMinBytes + op.contents.size();
  }
  const bool segmented = total_entry_bytes > wire::kMaxOpLogSegmentBytes;
  std::string payload;
  uint32_t segment_seq = 0;
  size_t next = 0;
  while (next < log.size()) {
    payload.clear();
    PutU32(&payload, object);
    if (segmented) {
      PutU32(&payload, segment_seq++);
      PutU64(&payload, next + 1);  // 1-based seqnum of the segment's first entry.
    }
    const size_t count_pos = payload.size();
    PutU64(&payload, 0);  // Entry count, patched once the record is sealed.
    uint64_t count = 0;
    // The cap bounds the whole record payload a reader must hold resident, so the
    // segment preamble written above counts against it too — not just entry bytes.
    uint64_t record_bytes = payload.size();
    while (next < log.size()) {
      const OpRecord& op = log[next];
      const uint64_t one = kOpLogEntryMinBytes + op.contents.size();
      if (segmented && count > 0 && record_bytes + one > wire::kMaxOpLogSegmentBytes) {
        break;
      }
      EncodeOpLogEntry(op, &payload);
      record_bytes += one;
      count++;
      next++;
    }
    for (int b = 0; b < 8; b++) {
      payload[count_pos + b] = static_cast<char>((count >> (8 * b)) & 0xff);
    }
    fn(segmented ? kRecOpLogSegment : kRecOpLog, payload);
  }
}

// --- reports section encode ---

// One canonical record enumeration backs the file writer, the exact byte accounting, and
// the public ForEachReportsRecord used by the network sending side.
void EnumerateReportsRecords(const Reports& reports, bool nondet_only,
                             const RecordFn& fn) {
  std::string payload;
  if (!nondet_only) {
    for (const ObjectDesc& d : reports.objects) {
      payload.clear();
      PutU8(&payload, static_cast<uint8_t>(d.kind));
      PutStr(&payload, d.name);
      fn(kRecObject, payload);
    }
    for (size_t i = 0; i < reports.op_logs.size(); i++) {
      EncodeOpLogRecords(static_cast<uint32_t>(i), reports.op_logs[i], fn);
    }
    for (const auto& [tag, rids] : reports.groups) {
      payload.clear();
      PutU64(&payload, tag);
      PutU64(&payload, rids.size());
      for (RequestId rid : rids) {
        PutU64(&payload, rid);
      }
      fn(kRecGroup, payload);
    }
    // unordered_map -> sorted so the encoding (and its byte count) is canonical.
    std::vector<std::pair<RequestId, uint32_t>> counts(reports.op_counts.begin(),
                                                       reports.op_counts.end());
    std::sort(counts.begin(), counts.end());
    payload.clear();
    PutU64(&payload, counts.size());
    for (const auto& [rid, count] : counts) {
      PutU64(&payload, rid);
      PutU32(&payload, count);
    }
    fn(kRecOpCounts, payload);
  }
  std::vector<RequestId> nondet_rids;
  nondet_rids.reserve(reports.nondet.size());
  for (const auto& [rid, records] : reports.nondet) {
    (void)records;
    nondet_rids.push_back(rid);
  }
  std::sort(nondet_rids.begin(), nondet_rids.end());
  for (RequestId rid : nondet_rids) {
    const std::vector<NondetRecord>& records = reports.nondet.at(rid);
    payload.clear();
    PutU64(&payload, rid);
    PutU32(&payload, static_cast<uint32_t>(records.size()));
    for (const NondetRecord& r : records) {
      PutStr(&payload, r.name);
      PutStr(&payload, r.value);
    }
    fn(kRecNondet, payload);
  }
}

// Writes the section whose records `for_each(fn)` enumerates to `path` atomically.
Status WriteSectionFile(const std::string& path, Env* env, wire::Section section,
                        const std::function<void(const RecordFn&)>& for_each) {
  wire::SectionWriter writer;
  if (Status st = writer.Open(env, path, section); !st.ok()) {
    return st;
  }
  for_each([&](uint8_t type, const std::string& payload) {
    (void)writer.Append(type, payload);  // Sticky: Commit reports the first failure.
  });
  return writer.Commit();
}

// The exact byte size WriteSectionFile produces for the same records: header, framed
// records, end record.
size_t SectionWireBytes(const std::function<void(const RecordFn&)>& for_each) {
  size_t bytes = kHeaderBytes + kRecordFrameBytesV2 + wire::kFooterPayloadBytes;
  for_each([&](uint8_t, const std::string& payload) {
    bytes += kRecordFrameBytesV2 + payload.size();
  });
  return bytes;
}

}  // namespace

// One decoder for both the in-memory reader and the streaming index (declared in the
// header; ReportsDecodeState carries the cross-record validation). Beyond the
// single-occurrence op-counts flag, it enforces the object table's header discipline:
// object records declare the id space every later record indexes into, so they must all
// precede the first non-object record (out-of-order declarations could retroactively
// legitimize an op-log already rejected), and no (kind, name) descriptor may be declared
// twice (FindObject resolves a descriptor to one id; a duplicate would let two distinct
// byte streams decode to the same Reports).
Status DecodeReportsRecordPayload(uint8_t type, std::string_view payload,
                                  const std::string& path, ReportsDecodeState* state,
                                  Reports* out, OpLogRecordSpans* spans) {
  Cursor c = MakeCursor(payload);
  if (spans != nullptr) {
    spans->entries.clear();
  }
  if (type != kRecObject) {
    state->saw_non_object = true;
  }
  switch (type) {
    case kRecObject: {
      uint8_t kind;
      std::string name;
      if (!c.TakeU8(&kind) || !c.TakeStr(&name) || !c.AtEnd()) {
        return Status::Error("wire: malformed object record in " + path);
      }
      if (kind > static_cast<uint8_t>(ObjectKind::kDb)) {
        return Status::Error("wire: unknown object kind " + std::to_string(kind) + " in " +
                             path);
      }
      if (state->saw_non_object) {
        return Status::Error("wire: out-of-order object record in " + path);
      }
      if (!state->declared.emplace(kind, name).second) {
        return Status::Error("wire: duplicate object record for '" + name + "' in " + path);
      }
      out->objects.push_back({static_cast<ObjectKind>(kind), std::move(name)});
      out->op_logs.emplace_back();
      return Status::Ok();
    }
    case kRecOpLog:
    case kRecOpLogSegment: {
      const bool segmented = type == kRecOpLogSegment;
      const std::string kind = segmented ? "op-log segment" : "op-log";
      uint32_t object = 0;
      uint32_t segment_seq = 0;
      uint64_t first_seqnum = 1;
      uint64_t count = 0;
      if (!c.TakeU32(&object) ||
          (segmented && (!c.TakeU32(&segment_seq) || !c.TakeU64(&first_seqnum))) ||
          !c.TakeU64(&count)) {
        return Status::Error("wire: malformed " + kind + " record in " + path);
      }
      if (object >= out->op_logs.size()) {
        return Status::Error("wire: " + kind + " for unknown object id " +
                             std::to_string(object) + " in " + path);
      }
      std::vector<OpRecord>& log = out->op_logs[object];
      auto it = state->segments.find(object);
      const uint32_t expected_seq = it == state->segments.end() ? 0 : it->second;
      if (!segmented) {
        if (it != state->segments.end()) {
          return Status::Error("wire: monolithic op-log record for segmented object id " +
                               std::to_string(object) + " in " + path);
        }
        if (!log.empty()) {
          return Status::Error("wire: duplicate op-log record for object id " +
                               std::to_string(object) + " in " + path);
        }
      } else {
        if (it == state->segments.end() && !log.empty()) {
          return Status::Error("wire: op-log segment for monolithic object id " +
                               std::to_string(object) + " in " + path);
        }
        if (segment_seq != expected_seq) {
          return Status::Error("wire: op-log segment " + std::to_string(segment_seq) +
                               " out of order for object id " + std::to_string(object) +
                               " (expected " + std::to_string(expected_seq) + ") in " +
                               path);
        }
        if (count == 0) {
          // The writer never seals an empty segment; accepting one would let two distinct
          // byte streams decode to the same Reports.
          return Status::Error("wire: empty op-log segment for object id " +
                               std::to_string(object) + " in " + path);
        }
        if (first_seqnum != log.size() + 1) {
          return Status::Error("wire: op-log segment entry range for object id " +
                               std::to_string(object) + " starts at seqnum " +
                               std::to_string(first_seqnum) + ", expected " +
                               std::to_string(log.size() + 1) + " in " + path);
        }
      }
      if (!c.CountFits(count, kOpLogEntryMinBytes)) {
        return Status::Error("wire: " + kind + " count " + std::to_string(count) +
                             " exceeds payload in " + path);
      }
      if (spans != nullptr) {
        spans->object = object;
        spans->first = log.size();
        spans->entries.reserve(static_cast<size_t>(count));
      }
      log.reserve(log.size() + static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; i++) {
        const size_t start = c.pos;
        OpRecord op;
        uint8_t optype = 0;
        switch (TakeOpLogEntry(&c, &op, &optype)) {
          case EntryParse::kOk:
            break;
          case EntryParse::kMalformed:
            return Status::Error("wire: malformed op record in " + path);
          case EntryParse::kUnknownType:
            return Status::Error("wire: unknown op type " + std::to_string(optype) +
                                 " in " + path);
        }
        if (spans != nullptr) {
          spans->entries.push_back({start, c.pos - start});
        }
        log.push_back(std::move(op));
      }
      if (!c.AtEnd()) {
        return Status::Error("wire: trailing bytes in " + kind + " record in " + path);
      }
      if (segmented) {
        state->segments[object] = expected_seq + 1;
      }
      return Status::Ok();
    }
    case kRecGroup: {
      uint64_t tag = 0, count = 0;
      if (!c.TakeU64(&tag) || !c.TakeU64(&count)) {
        return Status::Error("wire: malformed group record in " + path);
      }
      if (out->groups.count(tag) > 0) {
        return Status::Error("wire: duplicate group tag " + std::to_string(tag) + " in " +
                             path);
      }
      if (!c.CountFits(count, 8)) {
        return Status::Error("wire: group size " + std::to_string(count) +
                             " exceeds payload in " + path);
      }
      std::vector<RequestId>& rids = out->groups[tag];
      rids.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; i++) {
        RequestId rid;
        if (!c.TakeU64(&rid)) {
          return Status::Error("wire: malformed group record in " + path);
        }
        rids.push_back(rid);
      }
      if (!c.AtEnd()) {
        return Status::Error("wire: trailing bytes in group record in " + path);
      }
      return Status::Ok();
    }
    case kRecOpCounts: {
      // The writer emits exactly one op-counts record; accepting several would let two
      // distinct byte streams decode to the same Reports.
      if (state->saw_op_counts) {
        return Status::Error("wire: duplicate op-counts record in " + path);
      }
      state->saw_op_counts = true;
      uint64_t count = 0;
      if (!c.TakeU64(&count)) {
        return Status::Error("wire: malformed op-counts record in " + path);
      }
      for (uint64_t i = 0; i < count; i++) {
        RequestId rid;
        uint32_t ops;
        if (!c.TakeU64(&rid) || !c.TakeU32(&ops)) {
          return Status::Error("wire: malformed op-counts record in " + path);
        }
        if (!out->op_counts.emplace(rid, ops).second) {
          return Status::Error("wire: duplicate op count for rid " + std::to_string(rid) +
                               " in " + path);
        }
      }
      if (!c.AtEnd()) {
        return Status::Error("wire: trailing bytes in op-counts record in " + path);
      }
      return Status::Ok();
    }
    case kRecNondet: {
      RequestId rid;
      uint32_t count = 0;
      if (!c.TakeU64(&rid) || !c.TakeU32(&count)) {
        return Status::Error("wire: malformed nondet record in " + path);
      }
      if (out->nondet.count(rid) > 0) {
        return Status::Error("wire: duplicate nondet record for rid " + std::to_string(rid) +
                             " in " + path);
      }
      if (!c.CountFits(count, 4 + 4)) {  // Two empty strings.
        return Status::Error("wire: nondet count " + std::to_string(count) +
                             " exceeds payload in " + path);
      }
      std::vector<NondetRecord>& records = out->nondet[rid];
      records.reserve(count);
      for (uint32_t i = 0; i < count; i++) {
        NondetRecord r;
        if (!c.TakeStr(&r.name) || !c.TakeStr(&r.value)) {
          return Status::Error("wire: malformed nondet record in " + path);
        }
        records.push_back(std::move(r));
      }
      if (!c.AtEnd()) {
        return Status::Error("wire: trailing bytes in nondet record in " + path);
      }
      return Status::Ok();
    }
    default:
      return Status::Error("wire: unknown reports record type " + std::to_string(type) +
                           " in " + path);
  }
}

Status DecodeOpLogEntry(const char* data, size_t size, OpRecord* out) {
  Cursor c{reinterpret_cast<const unsigned char*>(data), size};
  uint8_t optype = 0;
  const EntryParse parsed = TakeOpLogEntry(&c, out, &optype);
  if (parsed == EntryParse::kMalformed || !c.AtEnd()) {
    return Status::Error("wire: malformed op-log entry slice");
  }
  if (parsed == EntryParse::kUnknownType) {
    return Status::Error("wire: unknown op type in op-log entry slice");
  }
  return Status::Ok();
}

namespace {

// --- state section encode ---

void EncodeValueMap(const std::map<std::string, Value>& m, std::string* out) {
  PutU64(out, m.size());
  for (const auto& [name, v] : m) {
    PutStr(out, name);
    PutStr(out, v.Serialize());
  }
}

Status DecodeValueMap(Cursor* c, const std::string& what, const std::string& path,
                      std::map<std::string, Value>* out) {
  uint64_t count = 0;
  if (!c->TakeU64(&count)) {
    return Status::Error("wire: malformed " + what + " record in " + path);
  }
  for (uint64_t i = 0; i < count; i++) {
    std::string name, bytes;
    if (!c->TakeStr(&name) || !c->TakeStr(&bytes)) {
      return Status::Error("wire: malformed " + what + " record in " + path);
    }
    Result<Value> v = DeserializeValue(bytes);
    if (!v.ok()) {
      return Status::Error("wire: bad " + what + " value for '" + name + "' in " + path +
                           ": " + v.error());
    }
    if (!out->emplace(std::move(name), std::move(v).value()).second) {
      return Status::Error("wire: duplicate " + what + " entry in " + path);
    }
  }
  if (!c->AtEnd()) {
    return Status::Error("wire: trailing bytes in " + what + " record in " + path);
  }
  return Status::Ok();
}

void EncodeSqlCell(const SqlValue& v, std::string* out) {
  if (v.is_null()) {
    PutU8(out, 0);
  } else if (v.is_int()) {
    PutU8(out, 1);
    PutU64(out, static_cast<uint64_t>(v.as_int()));
  } else if (v.is_float()) {
    PutU8(out, 2);
    PutF64(out, v.as_float());
  } else {
    PutU8(out, 3);
    PutStr(out, v.as_text());
  }
}

bool DecodeSqlCell(Cursor* c, SqlValue* out) {
  uint8_t tag;
  if (!c->TakeU8(&tag)) {
    return false;
  }
  switch (tag) {
    case 0:
      *out = SqlValue::Null();
      return true;
    case 1: {
      uint64_t bits;
      if (!c->TakeU64(&bits)) {
        return false;
      }
      *out = SqlValue::Int(static_cast<int64_t>(bits));
      return true;
    }
    case 2: {
      double d;
      if (!c->TakeF64(&d)) {
        return false;
      }
      *out = SqlValue::Float(d);
      return true;
    }
    case 3: {
      std::string s;
      if (!c->TakeStr(&s)) {
        return false;
      }
      *out = SqlValue::Text(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

void EnumerateStateRecords(const InitialState& state, const RecordFn& fn) {
  std::string payload;
  EncodeValueMap(state.registers, &payload);
  fn(kRecRegisters, payload);
  payload.clear();
  EncodeValueMap(state.kv, &payload);
  fn(kRecKv, payload);
  for (const std::string& table : state.db.TableNames()) {
    const std::vector<ColumnDef>* schema = state.db.Schema(table);
    const std::vector<SqlRow>* rows = state.db.Rows(table);
    payload.clear();
    PutStr(&payload, table);
    PutU32(&payload, schema == nullptr ? 0 : static_cast<uint32_t>(schema->size()));
    if (schema != nullptr) {
      for (const ColumnDef& col : *schema) {
        PutStr(&payload, col.name);
        PutU8(&payload, static_cast<uint8_t>(col.type));
      }
    }
    PutU64(&payload, rows == nullptr ? 0 : rows->size());
    if (rows != nullptr) {
      for (const SqlRow& row : *rows) {
        for (const SqlValue& cell : row) {
          EncodeSqlCell(cell, &payload);
        }
      }
    }
    fn(kRecDbTable, payload);
  }
}

Status DecodeStateRecord(uint8_t type, std::string_view payload, const std::string& path,
                         bool* saw_registers, bool* saw_kv, InitialState* out) {
  Cursor c = MakeCursor(payload);
  switch (type) {
    case kRecRegisters:
      if (*saw_registers) {
        return Status::Error("wire: duplicate registers record in " + path);
      }
      *saw_registers = true;
      return DecodeValueMap(&c, "register", path, &out->registers);
    case kRecKv:
      if (*saw_kv) {
        return Status::Error("wire: duplicate kv record in " + path);
      }
      *saw_kv = true;
      return DecodeValueMap(&c, "kv", path, &out->kv);
    case kRecDbTable: {
      std::string table;
      uint32_t ncols = 0;
      if (!c.TakeStr(&table) || !c.TakeU32(&ncols)) {
        return Status::Error("wire: malformed table record in " + path);
      }
      // Each column costs at least its length-prefixed name + 1-byte type tag.
      if (!c.CountFits(ncols, 4 + 1)) {
        return Status::Error("wire: table column count " + std::to_string(ncols) +
                             " exceeds payload in " + path);
      }
      std::vector<ColumnDef> schema;
      schema.reserve(ncols);
      for (uint32_t i = 0; i < ncols; i++) {
        ColumnDef col;
        uint8_t sqltype;
        if (!c.TakeStr(&col.name) || !c.TakeU8(&sqltype)) {
          return Status::Error("wire: malformed table schema in " + path);
        }
        if (sqltype > static_cast<uint8_t>(SqlType::kText)) {
          return Status::Error("wire: unknown SQL type " + std::to_string(sqltype) + " in " +
                               path);
        }
        col.type = static_cast<SqlType>(sqltype);
        schema.push_back(std::move(col));
      }
      uint64_t nrows = 0;
      if (!c.TakeU64(&nrows)) {
        return Status::Error("wire: malformed table record in " + path);
      }
      // Each cell costs at least its 1-byte tag, so a row costs at least ncols bytes; a
      // zero-width schema admits no rows at all (otherwise the row loop would consume no
      // payload and a forged nrows could spin it unbounded).
      if (ncols == 0 ? nrows > 0 : !c.CountFits(nrows, ncols)) {
        return Status::Error("wire: table row count " + std::to_string(nrows) +
                             " exceeds payload in " + path);
      }
      std::vector<SqlRow> rows;
      rows.reserve(static_cast<size_t>(nrows));
      for (uint64_t r = 0; r < nrows; r++) {
        SqlRow row;
        row.reserve(ncols);
        for (uint32_t i = 0; i < ncols; i++) {
          SqlValue cell;
          if (!DecodeSqlCell(&c, &cell)) {
            return Status::Error("wire: malformed table row in " + path);
          }
          row.push_back(std::move(cell));
        }
        rows.push_back(std::move(row));
      }
      if (!c.AtEnd()) {
        return Status::Error("wire: trailing bytes in table record in " + path);
      }
      if (Status st = out->db.LoadTable(table, std::move(schema), std::move(rows));
          !st.ok()) {
        return Status::Error("wire: " + st.error() + " in " + path);
      }
      return Status::Ok();
    }
    default:
      return Status::Error("wire: unknown state record type " + std::to_string(type) +
                           " in " + path);
  }
}

// Drives the record loop shared by the reports, state, and manifest readers.
template <typename Fn>
Status ReadSectionFile(const std::string& path, wire::Section section, Env* env,
                       Fn&& on_record) {
  wire::RecordStream stream;
  if (Status st = stream.Open(env, path, section); !st.ok()) {
    return st;
  }
  std::string_view payload;
  while (true) {
    uint8_t type = 0;
    Result<bool> more = stream.Next(&type, &payload);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      return Status::Ok();
    }
    if (Status st = on_record(type, payload); !st.ok()) {
      return st;
    }
  }
}

}  // namespace

// --- TraceWriter / TraceReader ---

Status TraceWriter::Open(const std::string& path, uint32_t shard_id, Env* env) {
  if (open_) {
    return Status::Error("wire: TraceWriter already open");
  }
  Status st = section_.Open(env, path, wire::Section::kTrace);
  if (st.ok() && shard_id != 0) {
    std::string payload;
    PutU32(&payload, shard_id);
    st = section_.Append(kRecShardInfo, payload);
  }
  open_ = st.ok();
  return st;
}

Status TraceWriter::Append(const TraceEvent& event) {
  EncodeTraceEvent(event, &scratch_);
  return AppendRecord(TraceEventRecordType(event), scratch_);
}

Status TraceWriter::AppendRecord(uint8_t type, const std::string& payload) {
  if (!open_) {
    return Status::Error("wire: TraceWriter is not open");
  }
  return section_.Append(type, payload);
}

Status TraceWriter::Finish() {
  if (!open_) {
    return Status::Error("wire: TraceWriter is not open");
  }
  open_ = false;  // One way or another, this writer is finished.
  return section_.Commit();
}

TraceReader::TraceReader() = default;

TraceReader::~TraceReader() = default;

Status TraceReader::Open(const std::string& path, Env* env) {
  if (stream_ != nullptr) {
    return Status::Error("wire: TraceReader already open");
  }
  auto stream = std::make_unique<wire::RecordStream>();
  if (Status st = stream->Open(env, path, wire::Section::kTrace); !st.ok()) {
    return st;
  }
  stream_ = std::move(stream);
  return Status::Ok();
}

Result<bool> TraceReader::Next(TraceEvent* event, TraceDecode decode) {
  if (done_) {
    // A clean end stays a clean end on repeated calls; a failure stays sticky.
    if (!error_.ok()) {
      return error_;
    }
    return false;
  }
  if (stream_ == nullptr) {
    return Result<bool>::Error("wire: TraceReader is not open");
  }
  auto fail = [&](Status error) {
    done_ = true;
    stream_.reset();
    error_ = std::move(error);
    return Result<bool>(error_);
  };
  auto fail_in_file = [&](const std::string& what) {
    return fail(Status::Error("wire: " + what + " in " + stream_->path()));
  };
  while (true) {
    uint8_t type = 0;
    std::string_view payload;
    Result<bool> more = stream_->Next(&type, &payload);
    if (!more.ok()) {
      return fail(more.status());
    }
    if (!more.value()) {
      done_ = true;
      stream_.reset();
      return false;
    }
    if (type == kRecShardInfo) {
      // An in-section header: positional like the envelope header, so it must come first
      // and must not repeat (a late or second one is a splice, not a valid layout).
      if (saw_shard_info_) {
        return fail_in_file("duplicate shard-info record");
      }
      if (records_seen_ != 0) {
        return fail_in_file("out-of-order shard-info record");
      }
      Cursor c = MakeCursor(payload);
      uint32_t id = 0;
      if (!c.TakeU32(&id) || !c.AtEnd()) {
        return fail_in_file("malformed shard-info record");
      }
      if (id == 0) {
        return fail_in_file("shard-info record with shard id 0");
      }
      saw_shard_info_ = true;
      records_seen_++;
      shard_id_ = id;
      continue;
    }
    records_seen_++;
    Result<TraceEvent> decoded = DecodeTraceEvent(type, payload, stream_->path(), decode);
    if (!decoded.ok()) {
      return fail(decoded.status());
    }
    *event = std::move(decoded).value();
    last_payload_offset_ = stream_->last_payload_offset();
    last_payload_bytes_ = payload.size();
    last_record_type_ = type;
    last_payload_crc_ = stream_->last_crc();
    return true;
  }
}

Status WriteTraceFile(const std::string& path, const Trace& trace, uint32_t shard_id,
                      Env* env) {
  TraceWriter writer;
  if (Status st = writer.Open(path, shard_id, env); !st.ok()) {
    return st;
  }
  for (const TraceEvent& e : trace.events) {
    if (Status st = writer.Append(e); !st.ok()) {
      return st;
    }
  }
  return writer.Finish();
}

Result<Trace> ReadTraceFile(const std::string& path, Env* env) {
  TraceReader reader;
  if (Status st = reader.Open(path, env); !st.ok()) {
    return st;
  }
  Trace trace;
  while (true) {
    TraceEvent e;
    Result<bool> more = reader.Next(&e);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      break;
    }
    trace.events.push_back(std::move(e));
  }
  return trace;
}

Result<TraceEvent> DecodeTraceEventPayload(uint8_t record_type,
                                           std::string_view payload) {
  return DecodeTraceEvent(record_type, payload, "trace file", TraceDecode::kFull);
}

void EncodeTraceEventRecord(const TraceEvent& event, uint8_t* type, std::string* payload) {
  *type = TraceEventRecordType(event);
  EncodeTraceEvent(event, payload);
}

void ForEachReportsRecord(const Reports& reports,
                          const std::function<void(uint8_t, const std::string&)>& fn) {
  EnumerateReportsRecords(reports, /*nondet_only=*/false, fn);
}

// --- Shard manifest files ---

Status WriteShardManifestFile(const std::string& path, const ShardManifest& manifest,
                              Env* env) {
  return WriteSectionFile(path, env, wire::Section::kManifest, [&](const RecordFn& fn) {
    std::string payload;
    if (manifest.epoch != 0) {
      PutU64(&payload, manifest.epoch);
      fn(kRecManifestEpoch, payload);
    }
    for (const ShardManifestEntry& shard : manifest.shards) {
      payload.clear();
      PutU32(&payload, shard.shard_id);
      PutStr(&payload, shard.trace_file);
      PutStr(&payload, shard.reports_file);
      fn(kRecManifestShard, payload);
    }
  });
}

Result<ShardManifest> ReadShardManifestFile(const std::string& path, Env* env) {
  ShardManifest out;
  bool saw_epoch = false;
  bool saw_shard = false;
  std::set<uint32_t> shard_ids;
  Status st = ReadSectionFile(
      path, wire::Section::kManifest, env, [&](uint8_t type, std::string_view payload) {
        Cursor c = MakeCursor(payload);
        switch (type) {
          case kRecManifestEpoch:
            // Same in-section header discipline as the trace shard-info record: at most
            // one, and before every shard entry.
            if (saw_epoch) {
              return Status::Error("wire: duplicate epoch record in " + path);
            }
            if (saw_shard) {
              return Status::Error("wire: out-of-order epoch record in " + path);
            }
            saw_epoch = true;
            if (!c.TakeU64(&out.epoch) || !c.AtEnd()) {
              return Status::Error("wire: malformed epoch record in " + path);
            }
            return Status::Ok();
          case kRecManifestShard: {
            saw_shard = true;
            ShardManifestEntry shard;
            if (!c.TakeU32(&shard.shard_id) || !c.TakeStr(&shard.trace_file) ||
                !c.TakeStr(&shard.reports_file) || !c.AtEnd()) {
              return Status::Error("wire: malformed shard record in " + path);
            }
            if (!shard_ids.insert(shard.shard_id).second) {
              return Status::Error("wire: duplicate shard id " +
                                   std::to_string(shard.shard_id) + " in " + path);
            }
            out.shards.push_back(std::move(shard));
            return Status::Ok();
          }
          default:
            return Status::Error("wire: unknown manifest record type " +
                                 std::to_string(type) + " in " + path);
        }
      });
  if (!st.ok()) {
    return st;
  }
  return out;
}

// --- Reports files ---

Status WriteReportsFile(const std::string& path, const Reports& reports, Env* env) {
  return WriteSectionFile(path, env, wire::Section::kReports, [&](const RecordFn& fn) {
    EnumerateReportsRecords(reports, /*nondet_only=*/false, fn);
  });
}

Result<Reports> ReadReportsFile(const std::string& path, Env* env) {
  // Drives the same streaming reader + per-record decoder the out-of-core index uses, so
  // the two paths accept exactly the same byte streams with exactly the same errors.
  ReportsRecordReader reader;
  if (Status st = reader.Open(path, env); !st.ok()) {
    return st;
  }
  Reports out;
  ReportsDecodeState state;
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
    if (Status st = DecodeReportsRecordPayload(type, payload, path, &state, &out);
        !st.ok()) {
      return st;
    }
  }
  return out;
}

ReportsRecordReader::ReportsRecordReader() = default;

ReportsRecordReader::~ReportsRecordReader() = default;

Status ReportsRecordReader::Open(const std::string& path, Env* env) {
  if (stream_ != nullptr) {
    return Status::Error("wire: ReportsRecordReader already open");
  }
  auto stream = std::make_unique<wire::RecordStream>();
  if (Status st = stream->Open(env, path, wire::Section::kReports); !st.ok()) {
    return st;
  }
  stream_ = std::move(stream);
  return Status::Ok();
}

Result<bool> ReportsRecordReader::Next(uint8_t* type, std::string_view* payload) {
  if (done_) {
    // A clean end stays a clean end on repeated calls; a failure stays sticky.
    if (!error_.ok()) {
      return error_;
    }
    return false;
  }
  if (stream_ == nullptr) {
    return Result<bool>::Error("wire: ReportsRecordReader is not open");
  }
  Result<bool> more = stream_->Next(type, payload);
  if (!more.ok() || !more.value()) {
    done_ = true;
    stream_.reset();
    if (!more.ok()) {
      error_ = more.status();
      return error_;
    }
    return false;
  }
  last_payload_offset_ = stream_->last_payload_offset();
  last_payload_bytes_ = payload->size();
  last_payload_crc_ = stream_->last_crc();
  return true;
}

// --- InitialState files ---

Status WriteInitialStateFile(const std::string& path, const InitialState& state,
                             Env* env) {
  return WriteSectionFile(path, env, wire::Section::kState,
                          [&](const RecordFn& fn) { EnumerateStateRecords(state, fn); });
}

Result<InitialState> ReadInitialStateFile(const std::string& path, Env* env) {
  InitialState out;
  bool saw_registers = false;
  bool saw_kv = false;
  Status st = ReadSectionFile(path, wire::Section::kState, env,
                              [&](uint8_t type, std::string_view payload) {
                                return DecodeStateRecord(type, payload, path, &saw_registers,
                                                         &saw_kv, &out);
                              });
  if (!st.ok()) {
    return st;
  }
  return out;
}

// --- exact wire sizes ---

// Declared in trace.h / reports.h; defined here next to the encoders they price.
size_t Trace::WireBytes() const {
  // Sum record sizes directly instead of re-encoding: framing + fixed fields + strings.
  size_t bytes = kHeaderBytes +
                 kRecordFrameBytesV2 + wire::kFooterPayloadBytes;  // Header + end record.
  for (const TraceEvent& e : events) {
    bytes += kRecordFrameBytesV2 + 8;  // rid.
    if (e.kind == TraceEvent::Kind::kRequest) {
      bytes += StrWireBytes(e.script) + 4;
      for (const auto& [k, v] : e.params) {
        bytes += StrWireBytes(k) + StrWireBytes(v);
      }
    } else {
      bytes += StrWireBytes(e.body);
    }
  }
  return bytes;
}

size_t Reports::WireBytes(bool nondet_only) const {
  // Same encoder as WriteReportsFile, so the count is exact.
  return SectionWireBytes(
      [&](const RecordFn& fn) { EnumerateReportsRecords(*this, nondet_only, fn); });
}

size_t InitialStateWireBytes(const InitialState& state) {
  return SectionWireBytes([&](const RecordFn& fn) { EnumerateStateRecords(state, fn); });
}

}  // namespace orochi

// Versioned binary wire format decoupling the collector/executor from the auditor
// (paper §2, §4.5 deployment model): the trusted collector spills the trace per epoch,
// the executor spills its reports, and the verifier later audits the files in a separate
// process via AuditSession. The section kinds share one envelope:
//
//   header:  8-byte magic "OROCHIWF", u32 format version (little-endian), u8 section kind
//   records: u8 record type, u64 payload length, u32 CRC32C(payload), payload bytes
//   footer:  the end record (type 0), carrying a 16-byte CRC-protected payload — u64
//            record count (excluding the end record) and the u64 byte offset of the end
//            record's own frame — so a reader proves it saw the complete section.
//
// Writers emit v3; readers accept v2 and v3, so v2 spill files stay readable (v1, which
// had no per-record CRC, is rejected as an unsupported version). v3 adds the segmented
// op-log record (reports sections only): an object whose encoded log exceeds
// kMaxOpLogSegmentBytes is split across several (object, segment_seq, entry_range)
// records instead of one monolithic record, so a streaming pass never transiently
// materializes more than one segment. Logs at or under the cap still encode as the
// classic monolithic record — byte-identical to what a v2 writer produced. All writes are
// crash-safe: temp file + fsync + rename-into-place, so a reader only ever observes a
// previous complete file or the new complete file. All file I/O goes through a pluggable
// Env (src/common/io_env.h); nullptr means Env::Default().
//
// All integers are little-endian; strings are u32 length + raw bytes; wscript Values ride
// as their canonical Serialize() form. A file is rejected (Status/Result error, never a
// crash) on bad magic, unsupported version, wrong section kind, truncation, checksum
// mismatch, or malformed payloads — report and state files cross a trust boundary, so
// readers parse defensively, and errors localize corruption to an exact record with
// file and byte-offset context.
//
// The same encoders back the exact byte accounting (`Trace::WireBytes`,
// `Reports::WireBytes`, `InitialStateWireBytes`) used by the Figure 8 overhead columns, so
// reported sizes equal the bytes a spill file actually occupies.
#ifndef SRC_OBJECTS_WIRE_FORMAT_H_
#define SRC_OBJECTS_WIRE_FORMAT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/objects/reports.h"
#include "src/objects/stores.h"
#include "src/objects/trace.h"

namespace orochi {

namespace wire {

inline constexpr char kMagic[8] = {'O', 'R', 'O', 'C', 'H', 'I', 'W', 'F'};
// What writers emit / the newest version readers accept.
// v2: CRC32C per record + CRC'd footer. v3: v2 framing + the segmented op-log reports
// record (kReportsRecOpLogSegment).
inline constexpr uint32_t kFormatVersion = 3;
// The oldest version readers still accept.
inline constexpr uint32_t kMinFormatVersion = 2;

enum class Section : uint8_t {
  kTrace = 1,
  kReports = 2,
  kState = 3,
  kManifest = 4,
  // Sidecar journal of completed pass-2 chunks for resumable audits
  // (src/stream/checkpoint.h).
  kCheckpoint = 5,
};

// Record type 0 terminates every section (its payload is the footer).
inline constexpr uint8_t kEndRecord = 0;

// Envelope and v2 frame sizes, public for sidecar files sharing the envelope and for
// offset arithmetic in tests.
inline constexpr size_t kEnvelopeHeaderBytes = sizeof(kMagic) + 4 /*version*/ + 1 /*section*/;
inline constexpr size_t kRecordFrameBytesV2 = 1 /*type*/ + 8 /*length*/ + 4 /*crc*/;
inline constexpr size_t kFooterPayloadBytes = 8 /*record count*/ + 8 /*end offset*/;

// Trace-section record types, public because the out-of-core audit re-reads individual
// records by (offset, length, type) long after the streaming pass that indexed them.
inline constexpr uint8_t kTraceRecRequest = 1;
inline constexpr uint8_t kTraceRecResponse = 2;
// In-section header carrying the collector's shard id. Emitted (by sharded collectors)
// as the first record of the section; readers reject it anywhere else, and reject a
// second one — an in-section header is positional, like the envelope header itself.
inline constexpr uint8_t kTraceRecShardInfo = 3;

// Reports-section record types, public because the out-of-core audit re-reads slices of
// individual op-log records by (offset, length) long after the streaming pass that
// indexed them (src/stream/reports_index.h).
inline constexpr uint8_t kReportsRecObject = 1;
inline constexpr uint8_t kReportsRecOpLog = 2;
inline constexpr uint8_t kReportsRecGroup = 3;
inline constexpr uint8_t kReportsRecOpCounts = 4;
inline constexpr uint8_t kReportsRecNondet = 5;
// v3: one byte-capped slice of an object's op-log. Payload: u32 object, u32 segment_seq
// (0-based, strictly sequential per object), u64 first_seqnum (1-based, must continue the
// log exactly — no gaps, no overlap), u64 entry count, then the entry frames. An object
// encodes either as one monolithic kReportsRecOpLog or as segments, never both.
inline constexpr uint8_t kReportsRecOpLogSegment = 6;

// Writer-side segmentation cap: an object whose encoded entry frames exceed this many
// bytes spills as kReportsRecOpLogSegment records of at most this size (a single entry
// larger than the cap rides alone in its own segment), so pass-1 indexing never holds
// more than ~one segment of one object transiently resident.
inline constexpr uint64_t kMaxOpLogSegmentBytes = 64 * 1024;

// Section readers scan a file forward through one read-ahead window of this many bytes:
// a frame or payload that fits is served from the window (one read per window refill,
// not two per record), and a payload larger than the window is read on its own. Sized
// to the segment cap, so every op-log segment record fits.
inline constexpr size_t kReadWindowBytes = kMaxOpLogSegmentBytes;

// The 13-byte envelope header for `section` at kFormatVersion, for sidecar writers.
std::string EnvelopeHeader(Section section);

// Checks the envelope header at the start of [data, data+n): complete, the magic, a
// version readers accept, and section kind `want`. Errors name `path`, located at
// offset 0.
Status CheckEnvelopeHeader(const char* data, size_t n, Section want,
                           const std::string& path);

// Appends one v2 record (frame + CRC + payload) to `out`, for sidecar writers.
void AppendRecordFrame(std::string* out, uint8_t type, const std::string& payload);

// Parses the v2 record frame at the start of [data, data+n). False when n is too small.
bool ParseRecordFrameV2(const char* data, size_t n, uint8_t* type, uint64_t* len,
                        uint32_t* crc);

// Appends the v2 end record (type 0 + CRC'd footer: `records` non-end records, end frame
// beginning at byte `end_offset`), for writers that assemble a section in memory.
void AppendEndRecordFrame(std::string* out, uint64_t records, uint64_t end_offset);

// Writes one section file crash-safely: Open writes the envelope header to a temp file,
// Append frames one record, and Commit appends the end record — its footer built from
// this writer's own record and byte counts — then fsyncs and renames the file into
// place. The one writer behind every spill, state and manifest file and the service's
// spools, so they all seal byte-identically.
class SectionWriter {
 public:
  Status Open(Env* env, const std::string& path, Section section);
  // Sticky: after a failed write, this and every later call return that failure.
  Status Append(uint8_t type, const std::string& payload);
  Status Commit();

  uint64_t bytes() const { return bytes_; }  // Bytes appended, header included.

 private:
  void Write(const char* data, size_t n);

  AtomicFileWriter atomic_;
  Status error_;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;  // Non-end records appended, for the footer.
};

// Version-aware record stream over one section file (definition in wire_format.cc).
class RecordStream;

}  // namespace wire

// --- Trace files ---
// One record per TraceEvent, in collector order, so the collector can stream events to
// disk as an epoch closes without materializing a second copy.

class TraceWriter {
 public:
  TraceWriter() = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // A nonzero shard_id stamps the file with a leading shard-info record, so a verifier
  // merging spill files from many collectors can identify and order the shards. Zero
  // (the default) writes the classic single-collector layout. Writes go to a temp file;
  // only a successful Finish renames it into place.
  Status Open(const std::string& path, uint32_t shard_id = 0, Env* env = nullptr);
  Status Append(const TraceEvent& event);
  // Appends one record EncodeTraceEventRecord produced, for a receiver spooling a
  // streamed trace.
  Status AppendRecord(uint8_t type, const std::string& payload);
  // Writes the end record, fsyncs, and renames into place; the file exists at `path`
  // only after Finish succeeds.
  Status Finish();

  // Bytes written so far, header included.
  uint64_t bytes() const { return section_.bytes(); }

 private:
  wire::SectionWriter section_;
  bool open_ = false;
  std::string scratch_;
};

// How much of each trace event TraceReader::Next keeps. kSkeleton keeps the kind, rid and
// script and steps over the parameter and body bytes, with the same bounds, trailing-byte
// and record-type checks (and the same errors) as kFull.
enum class TraceDecode { kFull, kSkeleton };

class TraceReader {
 public:
  TraceReader();
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  Status Open(const std::string& path, Env* env = nullptr);
  // True: *event holds the next trace event. False: clean end of section (and on any
  // further calls). Error: corrupt/truncated file (sticky across calls). A shard-info
  // record is consumed transparently (see shard_id()); it must be the first record of the
  // section and must not repeat — a duplicate or out-of-order in-section header rejects.
  Result<bool> Next(TraceEvent* event, TraceDecode decode = TraceDecode::kFull);

  // Shard id from the file's shard-info record; 0 until one is read (unsharded files
  // never carry one).
  uint32_t shard_id() const { return shard_id_; }

  // Location of the record the last successful Next() returned, for offset indexes built
  // by the out-of-core audit: the file offset of the record's payload (just past the
  // frame), the payload's byte length, its wire record type, and the payload's CRC32C
  // (read from the record frame and verified against the bytes this reader just
  // validated, so later point reads can prove the file did not change).
  uint64_t last_payload_offset() const { return last_payload_offset_; }
  uint64_t last_payload_bytes() const { return last_payload_bytes_; }
  uint8_t last_record_type() const { return last_record_type_; }
  uint32_t last_payload_crc() const { return last_payload_crc_; }

 private:
  std::unique_ptr<wire::RecordStream> stream_;
  bool done_ = false;
  Status error_;  // Not OK once a read has failed.
  uint64_t records_seen_ = 0;
  bool saw_shard_info_ = false;
  uint32_t shard_id_ = 0;
  uint64_t last_payload_offset_ = 0;
  uint64_t last_payload_bytes_ = 0;
  uint8_t last_record_type_ = 0;
  uint32_t last_payload_crc_ = 0;
};

Status WriteTraceFile(const std::string& path, const Trace& trace, uint32_t shard_id = 0,
                      Env* env = nullptr);
Result<Trace> ReadTraceFile(const std::string& path, Env* env = nullptr);

// Decodes one trace record payload (wire::kTraceRecRequest / kTraceRecResponse) exactly as
// TraceReader::Next would. The out-of-core audit uses this to materialize a single event
// from a point read at an offset recorded during the streaming pass.
Result<TraceEvent> DecodeTraceEventPayload(uint8_t record_type, std::string_view payload);

// Encodes one trace event as the record TraceWriter would frame — record type + canonical
// payload — so the socket transport (src/net) can stream events record-by-record and a
// receiver spooling them produces a file byte-identical to Collector::Flush's.
void EncodeTraceEventRecord(const TraceEvent& event, uint8_t* type, std::string* payload);

// --- Reports files ---
// Section layout: object-table records (in object-id order), one op-log record per
// non-empty log, group records, one op-counts record, nondet records (sorted by rid so the
// encoding is canonical).

Status WriteReportsFile(const std::string& path, const Reports& reports,
                        Env* env = nullptr);
Result<Reports> ReadReportsFile(const std::string& path, Env* env = nullptr);

// Streaming reports-section reader mirroring TraceReader: yields raw records together
// with their payload byte locations, so the out-of-core audit can build per-object
// op-log offset indexes during one forward pass and point-read entry slices later.
class ReportsRecordReader {
 public:
  ReportsRecordReader();
  ~ReportsRecordReader();
  ReportsRecordReader(const ReportsRecordReader&) = delete;
  ReportsRecordReader& operator=(const ReportsRecordReader&) = delete;

  Status Open(const std::string& path, Env* env = nullptr);
  // True: *type/*payload hold the next record; *payload views the reader's buffer and
  // stays valid until the next call. False: clean end of section (and on any further
  // calls). Error: corrupt/truncated file (sticky across calls).
  Result<bool> Next(uint8_t* type, std::string_view* payload);

  // Location of the record the last successful Next() returned: the file offset of the
  // record's payload (just past the frame), its byte length, and its CRC32C (see
  // TraceReader::last_payload_crc).
  uint64_t last_payload_offset() const { return last_payload_offset_; }
  uint64_t last_payload_bytes() const { return last_payload_bytes_; }
  uint32_t last_payload_crc() const { return last_payload_crc_; }

 private:
  std::unique_ptr<wire::RecordStream> stream_;
  bool done_ = false;
  Status error_;  // Not OK once a read has failed.
  uint64_t last_payload_offset_ = 0;
  uint64_t last_payload_bytes_ = 0;
  uint32_t last_payload_crc_ = 0;
};

// Cross-record validation state for one reports read: op-counts must occur at most once,
// and object records form an in-section header block (all before the first non-object
// record, no duplicate descriptor). Public so the in-memory ReadFile and the streaming
// index (StreamReportsSet::AppendFile) decode through the exact same code — one
// validator, identical error text.
struct ReportsDecodeState {
  bool saw_op_counts = false;
  bool saw_non_object = false;
  std::set<std::pair<uint8_t, std::string>> declared;
  // v3 segment sequencing: object id -> next expected segment_seq. Presence of an entry
  // marks the object as segmented, so a later monolithic op-log record for it (or a
  // segment for an object already covered monolithically) is rejected.
  std::map<uint32_t, uint32_t> segments;
};

// Byte span of one op-log entry inside an op-log record payload, relative to the payload
// start: the entry's frame (rid + opnum + type + length-prefixed contents) begins at
// `offset` and spans `bytes`.
struct OpLogEntrySpan {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

// Where the entries of one decoded op-log record (monolithic or segment) came from:
// `object`'s log entries from index `first` on, one span per entry in log order. The
// spans tile the payload after the record's fixed prefix.
struct OpLogRecordSpans {
  uint32_t object = 0;
  size_t first = 0;
  std::vector<OpLogEntrySpan> entries;
};

// Decodes one reports record payload into *out exactly as ReadReportsFile would. With
// `spans` set, an op-log record also reports where each decoded entry sits in `payload`
// (any other record leaves spans->entries empty), so a streaming index can locate the
// entries without parsing the payload a second time.
Status DecodeReportsRecordPayload(uint8_t type, std::string_view payload,
                                  const std::string& path, ReportsDecodeState* state,
                                  Reports* out, OpLogRecordSpans* spans = nullptr);

// Decodes one op-log entry frame (a single OpLogEntrySpan's bytes) with the reports
// decoder's entry parser. The out-of-core audit uses this to materialize an entry from a
// point read at an offset recorded during the streaming pass.
Status DecodeOpLogEntry(const char* data, size_t size, OpRecord* out);

// Enumerates the records a reports spill file for `reports` would contain, in file order
// (the canonical encoding WriteReportsFile produces), invoking `fn(type, payload)` per
// record — the end record excluded. Shared by WriteReportsFile and the network
// CollectorClient, so a reports stream spooled record-by-record is byte-identical to a
// direct spill of the same Reports.
void ForEachReportsRecord(const Reports& reports,
                          const std::function<void(uint8_t, const std::string&)>& fn);

// --- Shard manifest files ---
// A tiny wire-format section (kind 4) naming the spill-file pair each collector shard
// produced for one epoch, so a single verifier can audit many front ends:
// `AuditSession::FeedShardedEpoch(manifest_path)` merge-joins the listed pairs into one
// logical epoch. File paths are stored as written (typically relative to the manifest's
// own directory) and resolved by the reader's caller. Shard ids must be unique within a
// manifest; the optional epoch record, when present, must precede the shard entries —
// the same in-section header discipline the trace shard-info record follows.

struct ShardManifestEntry {
  uint32_t shard_id = 0;
  std::string trace_file;
  std::string reports_file;
};

struct ShardManifest {
  uint64_t epoch = 0;
  std::vector<ShardManifestEntry> shards;
};

Status WriteShardManifestFile(const std::string& path, const ShardManifest& manifest,
                              Env* env = nullptr);
Result<ShardManifest> ReadShardManifestFile(const std::string& path, Env* env = nullptr);

// --- InitialState snapshot files ---
// Registers, KV contents, and every database table (schema + rows), enough to reopen an
// AuditSession in a fresh process with the state a previous epoch's audit accepted.

Status WriteInitialStateFile(const std::string& path, const InitialState& state,
                             Env* env = nullptr);
Result<InitialState> ReadInitialStateFile(const std::string& path, Env* env = nullptr);

// --- Exact wire sizes ---
// The byte count of the file WriteInitialStateFile would produce (header and end record
// included); Trace::WireBytes and Reports::WireBytes price the other two sections.

size_t InitialStateWireBytes(const InitialState& state);

}  // namespace orochi

#endif  // SRC_OBJECTS_WIRE_FORMAT_H_

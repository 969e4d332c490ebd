// Wire-format round-trips (Read(Write(x)) == x for traces, reports, and state
// snapshots), exact-size accounting, and defensive rejection of corrupt or truncated
// files — spill files cross a trust boundary, so the readers must never crash.
#include "src/objects/wire_format.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/lang/value.h"
#include "src/server/collector.h"

namespace orochi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/wire_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

Trace SampleTrace() {
  Trace t;
  TraceEvent req;
  req.kind = TraceEvent::Kind::kRequest;
  req.rid = 7;
  req.script = "/forum/view";
  req.params = {{"topic", "3"}, {"user", "alice"}, {"empty", ""}};
  t.events.push_back(req);
  TraceEvent resp;
  resp.kind = TraceEvent::Kind::kResponse;
  resp.rid = 7;
  resp.body = std::string("<html>\0binary\xff</html>", 22);
  t.events.push_back(resp);
  TraceEvent req2;
  req2.kind = TraceEvent::Kind::kRequest;
  req2.rid = 8;
  req2.script = "/forum/index";
  t.events.push_back(req2);
  TraceEvent resp2;
  resp2.kind = TraceEvent::Kind::kResponse;
  resp2.rid = 8;
  t.events.push_back(resp2);
  return t;
}

Reports SampleReports() {
  Reports r;
  r.objects.push_back({ObjectKind::kKv, ""});
  r.objects.push_back({ObjectKind::kDb, ""});
  r.objects.push_back({ObjectKind::kRegister, "sess:alice"});
  r.op_logs.resize(3);
  r.op_logs[0].push_back({7, 1, StateOpType::kKvGet, "key1"});
  r.op_logs[0].push_back({8, 1, StateOpType::kKvSet,
                          MakeKvSetContents("key1", Value::Int(42))});
  r.op_logs[1].push_back({7, 2, StateOpType::kDbOp,
                          MakeDbContents({"SELECT * FROM posts"}, false, true)});
  r.op_logs[2].push_back({8, 2, StateOpType::kRegisterWrite,
                          MakeRegisterWriteContents(Value::Str("hi"))});
  r.groups[11] = {7};
  r.groups[12] = {8};
  r.groups[13] = {};  // Empty group must survive the round-trip.
  r.op_counts[7] = 2;
  r.op_counts[8] = 2;
  r.nondet[7] = {{"time", Value::Int(1500000000).Serialize()},
                 {"rand", Value::Int(4).Serialize()}};
  r.nondet[8] = {};  // Empty nondet list for a rid must survive too.
  return r;
}

InitialState SampleState() {
  InitialState s;
  s.registers["sess:alice"] = Value::Str("logged-in");
  s.registers["sess:bob"] = Value::Null();
  s.kv["cache:index"] = Value::Int(-17);
  s.kv["cache:pi"] = Value::Float(3.25);
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Str("x"));
  arr.MutableArray().Set(ArrayKey(std::string("k")), Value::Bool(true));
  s.kv["cache:arr"] = arr;
  EXPECT_TRUE(
      s.db.ExecuteText("CREATE TABLE posts (id INT, score FLOAT, body TEXT)").ok());
  EXPECT_TRUE(
      s.db.ExecuteText("INSERT INTO posts (id, score, body) VALUES (1, 0.5, 'hello')").ok());
  EXPECT_TRUE(s.db.ExecuteText("CREATE TABLE empty_t (a INT)").ok());
  return s;
}

bool TraceEq(const Trace& a, const Trace& b) {
  if (a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); i++) {
    const TraceEvent& x = a.events[i];
    const TraceEvent& y = b.events[i];
    if (x.kind != y.kind || x.rid != y.rid || x.script != y.script ||
        x.params != y.params || x.body != y.body) {
      return false;
    }
  }
  return true;
}

TEST(WireTrace, RoundTripAndExactSize) {
  Trace t = SampleTrace();
  std::string path = TempPath("trace_rt.bin");
  ASSERT_TRUE(WriteTraceFile(path, t).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), t.WireBytes());

  Result<Trace> back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(TraceEq(t, back.value()));
}

TEST(WireTrace, EmptyTraceRoundTrips) {
  std::string path = TempPath("trace_empty.bin");
  ASSERT_TRUE(WriteTraceFile(path, Trace{}).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), Trace{}.WireBytes());
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(back.value().events.empty());
}

TEST(WireTrace, StreamingReaderMatchesBulkReader) {
  Trace t = SampleTrace();
  std::string path = TempPath("trace_stream.bin");
  ASSERT_TRUE(WriteTraceFile(path, t).ok());
  TraceReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Trace streamed;
  while (true) {
    TraceEvent e;
    Result<bool> more = reader.Next(&e);
    ASSERT_TRUE(more.ok()) << more.error();
    if (!more.value()) {
      break;
    }
    streamed.events.push_back(std::move(e));
  }
  EXPECT_TRUE(TraceEq(t, streamed));
  // A clean end stays a clean end: probing again is not an error.
  TraceEvent e;
  Result<bool> again = reader.Next(&e);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_FALSE(again.value());
}

TEST(WireReports, RoundTripAndExactSize) {
  Reports r = SampleReports();
  std::string path = TempPath("reports_rt.bin");
  ASSERT_TRUE(WriteReportsFile(path, r).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), r.WireBytes());

  Result<Reports> back = ReadReportsFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  const Reports& b = back.value();
  ASSERT_EQ(b.objects.size(), r.objects.size());
  for (size_t i = 0; i < r.objects.size(); i++) {
    EXPECT_TRUE(b.objects[i] == r.objects[i]) << i;
  }
  ASSERT_EQ(b.op_logs.size(), r.op_logs.size());
  for (size_t i = 0; i < r.op_logs.size(); i++) {
    ASSERT_EQ(b.op_logs[i].size(), r.op_logs[i].size()) << i;
    for (size_t j = 0; j < r.op_logs[i].size(); j++) {
      EXPECT_EQ(b.op_logs[i][j].rid, r.op_logs[i][j].rid);
      EXPECT_EQ(b.op_logs[i][j].opnum, r.op_logs[i][j].opnum);
      EXPECT_EQ(b.op_logs[i][j].type, r.op_logs[i][j].type);
      EXPECT_EQ(b.op_logs[i][j].contents, r.op_logs[i][j].contents);
    }
  }
  EXPECT_EQ(b.groups, r.groups);
  EXPECT_EQ(b.op_counts, r.op_counts);
  ASSERT_EQ(b.nondet.size(), r.nondet.size());
  for (const auto& [rid, records] : r.nondet) {
    ASSERT_TRUE(b.nondet.count(rid) > 0) << rid;
    const auto& got = b.nondet.at(rid);
    ASSERT_EQ(got.size(), records.size());
    for (size_t i = 0; i < records.size(); i++) {
      EXPECT_EQ(got[i].name, records[i].name);
      EXPECT_EQ(got[i].value, records[i].value);
    }
  }
}

TEST(WireReports, NondetOnlySizeIsSmallerAndExact) {
  Reports r = SampleReports();
  size_t full = r.WireBytes(false);
  size_t nd = r.WireBytes(true);
  EXPECT_LT(nd, full);
  // The nondet-only costing must match a file holding only the ND records.
  Reports nd_only;
  nd_only.nondet = r.nondet;
  std::string path = TempPath("reports_nd.bin");
  ASSERT_TRUE(WriteReportsFile(path, nd_only).ok());
  // A full write of nd_only also carries the (empty) op-counts record; the nondet_only
  // costing omits it, so it prices <= the file.
  EXPECT_LE(nd, ReadFileBytes(path).size());
}

// The decoder's entry spans are what pass 1 indexes op-log entries from, so each span
// must point at exactly the entry the full decode produced, and the spans of one record
// must tile its payload after the fixed prefix — for a small object's monolithic record
// and for a hot object split into segment records alike.
TEST(WireReports, DecoderEntrySpansTileEachOpLogRecord) {
  Reports r;
  r.objects.push_back({ObjectKind::kRegister, "small"});
  r.objects.push_back({ObjectKind::kKv, ""});
  r.op_logs.resize(2);
  r.op_logs[0].push_back({1, 1, StateOpType::kRegisterRead, ""});
  r.op_logs[0].push_back({2, 1, StateOpType::kRegisterWrite,
                          MakeRegisterWriteContents(Value::Int(5))});
  for (RequestId rid = 1; rid <= 300; rid++) {
    const char fill = static_cast<char>('a' + rid % 26);
    r.op_logs[1].push_back(
        {rid, 2, StateOpType::kKvSet, std::string(300 + rid % 7, fill)});
  }
  uint64_t hot_bytes = 0;
  for (const OpRecord& op : r.op_logs[1]) {
    hot_bytes += 8 + 4 + 1 + 4 + op.contents.size();
  }
  ASSERT_GT(hot_bytes, wire::kMaxOpLogSegmentBytes);
  std::string path = TempPath("reports_spans.bin");
  ASSERT_TRUE(WriteReportsFile(path, r).ok());

  ReportsRecordReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Reports decoded;
  ReportsDecodeState state;
  OpLogRecordSpans spans;
  size_t monolithic = 0, segments = 0;
  std::vector<size_t> spanned(r.op_logs.size(), 0);
  uint8_t type = 0;
  std::string_view payload;
  while (true) {
    Result<bool> more = reader.Next(&type, &payload);
    ASSERT_TRUE(more.ok()) << more.error();
    if (!more.value()) {
      break;
    }
    ASSERT_TRUE(
        DecodeReportsRecordPayload(type, payload, path, &state, &decoded, &spans).ok());
    if (type != wire::kReportsRecOpLog && type != wire::kReportsRecOpLogSegment) {
      EXPECT_TRUE(spans.entries.empty()) << "record type " << int(type);
      continue;
    }
    const bool segment = type == wire::kReportsRecOpLogSegment;
    (segment ? segments : monolithic)++;
    ASSERT_LT(spans.object, r.op_logs.size());
    EXPECT_EQ(spans.first, spanned[spans.object]);
    ASSERT_FALSE(spans.entries.empty());
    // Fixed prefix: object + count, plus segment_seq + first_seqnum for a segment.
    uint64_t next = segment ? 4 + 4 + 8 + 8 : 4 + 8;
    for (size_t k = 0; k < spans.entries.size(); k++) {
      const OpLogEntrySpan& span = spans.entries[k];
      EXPECT_EQ(span.offset, next) << "entry " << k;
      next = span.offset + span.bytes;
      ASSERT_LE(next, payload.size());
      OpRecord entry;
      ASSERT_TRUE(DecodeOpLogEntry(payload.data() + span.offset,
                                   static_cast<size_t>(span.bytes), &entry)
                      .ok());
      const OpRecord& full = decoded.op_logs[spans.object][spans.first + k];
      EXPECT_EQ(entry.rid, full.rid);
      EXPECT_EQ(entry.opnum, full.opnum);
      EXPECT_EQ(entry.type, full.type);
      EXPECT_EQ(entry.contents, full.contents);
    }
    EXPECT_EQ(next, payload.size());
    spanned[spans.object] += spans.entries.size();
  }
  EXPECT_EQ(monolithic, 1u);
  EXPECT_GE(segments, 2u);
  for (size_t i = 0; i < r.op_logs.size(); i++) {
    EXPECT_EQ(spanned[i], r.op_logs[i].size()) << "object " << i;
  }
}

TEST(WireState, RoundTripAndExactSize) {
  InitialState s = SampleState();
  std::string path = TempPath("state_rt.bin");
  ASSERT_TRUE(WriteInitialStateFile(path, s).ok());
  EXPECT_EQ(ReadFileBytes(path).size(), InitialStateWireBytes(s));

  Result<InitialState> back = ReadInitialStateFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(InitialStateFingerprint(back.value()), InitialStateFingerprint(s));
  // Fingerprint covers register/kv names and DB rows; double-check value identity too.
  EXPECT_TRUE(Value::DeepEquals(back.value().kv.at("cache:arr"), s.kv.at("cache:arr")));
  EXPECT_TRUE(Value::DeepEquals(back.value().registers.at("sess:bob"), Value::Null()));
  EXPECT_EQ(back.value().db.RowCount("posts"), 1u);
  EXPECT_EQ(back.value().db.RowCount("empty_t"), 0u);
}

TEST(WireFormat, RejectsBadMagic) {
  std::string path = TempPath("bad_magic.bin");
  std::string bytes = "NOTOROCH" + std::string(16, '\0');
  WriteFileBytes(path, bytes);
  Result<Trace> t = ReadTraceFile(path);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.error().find("bad magic"), std::string::npos) << t.error();
}

TEST(WireFormat, RejectsWrongVersion) {
  Trace t = SampleTrace();
  std::string path = TempPath("bad_version.bin");
  ASSERT_TRUE(WriteTraceFile(path, t).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = 99;  // Version field follows the 8-byte magic.
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("unsupported format version"), std::string::npos)
      << back.error();
}

TEST(WireFormat, RejectsWrongSectionKind) {
  std::string path = TempPath("wrong_section.bin");
  ASSERT_TRUE(WriteTraceFile(path, SampleTrace()).ok());
  Result<Reports> r = ReadReportsFile(path);  // A trace file is not a reports file.
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("section kind"), std::string::npos) << r.error();
}

TEST(WireFormat, RejectsTruncation) {
  Reports r = SampleReports();
  std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteReportsFile(path, r).ok());
  std::string bytes = ReadFileBytes(path);
  // Chop at many boundaries: header, mid-frame, mid-payload, before the end record.
  for (size_t cut : {size_t{4}, size_t{13}, size_t{14}, size_t{20}, bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    WriteFileBytes(path, bytes.substr(0, cut));
    Result<Reports> back = ReadReportsFile(path);
    EXPECT_FALSE(back.ok()) << "cut at " << cut;
  }
}

TEST(WireFormat, RejectsTrailingGarbage) {
  std::string path = TempPath("trailing.bin");
  ASSERT_TRUE(WriteTraceFile(path, SampleTrace()).ok());
  std::string bytes = ReadFileBytes(path) + "garbage";
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("trailing bytes"), std::string::npos) << back.error();
}

TEST(WireFormat, RejectsOversizedRecordLength) {
  std::string path = TempPath("oversized.bin");
  ASSERT_TRUE(WriteTraceFile(path, SampleTrace()).ok());
  std::string bytes = ReadFileBytes(path);
  // First record frame starts right after the 13-byte header; blow up its length field.
  for (int i = 0; i < 8; i++) {
    bytes[13 + 1 + i] = static_cast<char>(0xff);
  }
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("exceeds limit"), std::string::npos) << back.error();
}

TEST(WireFormat, RejectsUnknownRecordType) {
  std::string path = TempPath("unknown_type.bin");
  ASSERT_TRUE(WriteTraceFile(path, SampleTrace()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[13] = 42;  // First record's type byte.
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("unknown trace record type"), std::string::npos)
      << back.error();
}

// Hand-assembled payload bytes for forged-file tests. The envelope and record frames come
// from the writers' own helpers, so every forged record passes its CRC and the payload
// validators are what fire.
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
// Seals a forged section with the end record whose footer counts every record frame
// after the envelope header.
void AppendEnd(std::string* bytes) {
  uint64_t records = 0;
  size_t pos = wire::kEnvelopeHeaderBytes;
  uint8_t type = 0;
  uint64_t len = 0;
  uint32_t crc = 0;
  while (wire::ParseRecordFrameV2(bytes->data() + pos, bytes->size() - pos, &type, &len,
                                  &crc)) {
    pos += wire::kRecordFrameBytesV2 + len;
    records++;
  }
  wire::AppendEndRecordFrame(bytes, records, bytes->size());
}

// A forged element count far beyond the payload must reject, not feed vector::reserve
// (which would throw length_error in an exception-free codebase and abort the verifier).
TEST(WireFormat, RejectsForgedHugeOpLogCount) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kReports);
  std::string object;             // ObjectKind::kKv + empty name.
  object.push_back(1);
  AppendU32(&object, 0);
  wire::AppendRecordFrame(&bytes, 1, object);
  std::string oplog;  // Object id 0 claiming 2^62 op records in a 12-byte payload.
  AppendU32(&oplog, 0);
  AppendU64(&oplog, 1ull << 62);
  wire::AppendRecordFrame(&bytes, 2, oplog);
  AppendEnd(&bytes);
  std::string path = TempPath("forged_oplog_count.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("exceeds payload"), std::string::npos) << back.error();
}

// ncols = 0 with nrows > 0 would let the row loop spin without consuming payload.
TEST(WireFormat, RejectsZeroWidthTableWithRows) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kState);
  std::string table;
  AppendU32(&table, 1);
  table += "t";
  AppendU32(&table, 0);           // ncols = 0.
  AppendU64(&table, 1ull << 40);  // nrows.
  wire::AppendRecordFrame(&bytes, 3, table);
  AppendEnd(&bytes);
  std::string path = TempPath("forged_zero_width.bin");
  WriteFileBytes(path, bytes);
  Result<InitialState> back = ReadInitialStateFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("exceeds payload"), std::string::npos) << back.error();
}

// The writer emits exactly one op-counts record; a second one must reject.
TEST(WireFormat, RejectsDuplicateOpCountsRecords) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kReports);
  std::string counts;
  AppendU64(&counts, 0);
  wire::AppendRecordFrame(&bytes, 4, counts);
  wire::AppendRecordFrame(&bytes, 4, counts);
  AppendEnd(&bytes);
  std::string path = TempPath("dup_op_counts.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("duplicate op-counts"), std::string::npos) << back.error();
}

// --- In-section header discipline (shard-info, object table, manifest) ---

TEST(WireTrace, ShardedFileRoundTripsAndExposesShardId) {
  Trace t = SampleTrace();
  std::string path = TempPath("sharded_trace.bin");
  ASSERT_TRUE(WriteTraceFile(path, t, /*shard_id=*/12).ok());
  // The bulk reader tolerates (and skips) the shard-info header...
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(TraceEq(t, back.value()));
  // ...and the streaming reader surfaces the id.
  TraceReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  TraceEvent e;
  ASSERT_TRUE(reader.Next(&e).ok());
  EXPECT_EQ(reader.shard_id(), 12u);
}

std::string ShardInfoRecordBytes(uint32_t id) {
  std::string payload;
  AppendU32(&payload, id);
  std::string out;
  wire::AppendRecordFrame(&out, 3, payload);  // kTraceRecShardInfo.
  return out;
}

TEST(WireTrace, RejectsDuplicateShardInfoRecord) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kTrace) + ShardInfoRecordBytes(1) +
                      ShardInfoRecordBytes(1);
  AppendEnd(&bytes);
  std::string path = TempPath("dup_shard_info.bin");
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("duplicate shard-info"), std::string::npos) << back.error();
}

TEST(WireTrace, RejectsOutOfOrderShardInfoRecord) {
  // A response record first, then the shard-info header: an in-section header is
  // positional, so a late one is a splice, not a valid layout.
  std::string response;
  AppendU64(&response, 7);
  AppendU32(&response, 0);  // Empty body string.
  std::string bytes = wire::EnvelopeHeader(wire::Section::kTrace);
  wire::AppendRecordFrame(&bytes, 2, response);
  bytes += ShardInfoRecordBytes(1);
  AppendEnd(&bytes);
  std::string path = TempPath("late_shard_info.bin");
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("out-of-order shard-info"), std::string::npos)
      << back.error();
}

TEST(WireTrace, RejectsShardIdZeroRecord) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kTrace) + ShardInfoRecordBytes(0);
  AppendEnd(&bytes);
  std::string path = TempPath("zero_shard_info.bin");
  WriteFileBytes(path, bytes);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("shard id 0"), std::string::npos) << back.error();
}

// Two complete sections spliced into one file: the second envelope header must not parse
// as more records.
TEST(WireTrace, RejectsConcatenatedSections) {
  std::string path = TempPath("concat_sections.bin");
  ASSERT_TRUE(WriteTraceFile(path, SampleTrace()).ok());
  std::string once = ReadFileBytes(path);
  WriteFileBytes(path, once + once);
  Result<Trace> back = ReadTraceFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("trailing bytes"), std::string::npos) << back.error();
}

std::string ObjectRecordBytes(uint8_t kind, const std::string& name) {
  std::string payload;
  payload.push_back(static_cast<char>(kind));
  AppendU32(&payload, static_cast<uint32_t>(name.size()));
  payload += name;
  std::string out;
  wire::AppendRecordFrame(&out, 1, payload);  // kRecObject.
  return out;
}

TEST(WireReports, RejectsDuplicateObjectRecord) {
  std::string bytes = wire::EnvelopeHeader(wire::Section::kReports) +
                      ObjectRecordBytes(0, "r") + ObjectRecordBytes(0, "r");
  AppendEnd(&bytes);
  std::string path = TempPath("dup_object.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("duplicate object record"), std::string::npos)
      << back.error();
}

TEST(WireReports, RejectsOutOfOrderObjectRecord) {
  // The object table declares the id space everything else indexes into, so an object
  // record after any non-object record is rejected (the writer always emits them first).
  std::string counts;
  AppendU64(&counts, 0);
  std::string bytes = wire::EnvelopeHeader(wire::Section::kReports) + ObjectRecordBytes(1, "");
  wire::AppendRecordFrame(&bytes, 4, counts);  // kRecOpCounts.
  bytes += ObjectRecordBytes(0, "late");
  AppendEnd(&bytes);
  std::string path = TempPath("late_object.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("out-of-order object record"), std::string::npos)
      << back.error();
}

TEST(WireManifest, RoundTrips) {
  ShardManifest m;
  m.epoch = 42;
  m.shards.push_back({1, "trace_1.bin", "reports_1.bin"});
  m.shards.push_back({2, "sub/trace_2.bin", "sub/reports_2.bin"});
  m.shards.push_back({7, "/abs/trace_7.bin", "/abs/reports_7.bin"});
  std::string path = TempPath("manifest_rt.bin");
  ASSERT_TRUE(WriteShardManifestFile(path, m).ok());
  Result<ShardManifest> back = ReadShardManifestFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().epoch, 42u);
  ASSERT_EQ(back.value().shards.size(), 3u);
  EXPECT_EQ(back.value().shards[1].shard_id, 2u);
  EXPECT_EQ(back.value().shards[1].trace_file, "sub/trace_2.bin");
  EXPECT_EQ(back.value().shards[2].reports_file, "/abs/reports_7.bin");
}

TEST(WireManifest, RejectsDuplicateShardIdAndLateEpochRecord) {
  ShardManifest m;
  m.shards.push_back({3, "a", "b"});
  m.shards.push_back({3, "c", "d"});
  std::string path = TempPath("manifest_dup.bin");
  ASSERT_TRUE(WriteShardManifestFile(path, m).ok());
  Result<ShardManifest> back = ReadShardManifestFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("duplicate shard id"), std::string::npos) << back.error();

  // Epoch record after a shard record: same positional-header rule as everywhere else.
  std::string shard;
  AppendU32(&shard, 1);
  AppendU32(&shard, 1);
  shard += "t";
  AppendU32(&shard, 1);
  shard += "r";
  std::string epoch;
  AppendU64(&epoch, 5);
  std::string bytes = wire::EnvelopeHeader(wire::Section::kManifest);
  wire::AppendRecordFrame(&bytes, 2, shard);
  wire::AppendRecordFrame(&bytes, 1, epoch);
  AppendEnd(&bytes);
  std::string late_path = TempPath("manifest_late_epoch.bin");
  WriteFileBytes(late_path, bytes);
  Result<ShardManifest> late = ReadShardManifestFile(late_path);
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.error().find("out-of-order epoch record"), std::string::npos)
      << late.error();
}

// An AppendReports error must leave dst untouched (no half-merged epochs).
TEST(WireReports, AppendReportsIsAtomicOnRidCollision) {
  Reports dst = SampleReports();
  size_t objects_before = dst.objects.size();
  size_t log0_before = dst.op_logs[0].size();
  size_t groups_before = dst.groups.size();
  Reports src;
  src.objects.push_back({ObjectKind::kKv, ""});
  src.op_logs.resize(1);
  src.op_logs[0].push_back({7, 1, StateOpType::kKvGet, "x"});
  src.groups[99] = {7};
  src.op_counts[7] = 1;  // Collides with dst's rid 7.
  Status st = AppendReports(&dst, src);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(dst.objects.size(), objects_before);
  EXPECT_EQ(dst.op_logs[0].size(), log0_before);
  EXPECT_EQ(dst.groups.size(), groups_before);
  EXPECT_EQ(dst.groups.count(99), 0u);
}

TEST(WireFormat, RejectsMissingFile) {
  Result<Trace> t = ReadTraceFile(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(t.ok());
  Result<InitialState> s = ReadInitialStateFile(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(s.ok());
}

TEST(WireReports, RejectsOpLogForUnknownObject) {
  // Hand-crafted file (every record's CRC is valid, so the payload-level check is what
  // fires): one declared object, then an op-log claiming object id 7.
  std::string bytes = wire::EnvelopeHeader(wire::Section::kReports);
  std::string object;             // ObjectKind::kKv + empty name.
  object.push_back(1);
  AppendU32(&object, 0);
  wire::AppendRecordFrame(&bytes, 1, object);
  std::string oplog;
  AppendU32(&oplog, 7);  // Object id 7 does not exist.
  AppendU64(&oplog, 1);
  AppendU64(&oplog, 1);  // rid.
  AppendU32(&oplog, 1);  // opnum.
  oplog.push_back(static_cast<char>(StateOpType::kKvGet));
  AppendU32(&oplog, 1);
  oplog += "k";
  wire::AppendRecordFrame(&bytes, 2, oplog);
  AppendEnd(&bytes);
  std::string path = TempPath("bad_objid.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("unknown object id"), std::string::npos) << back.error();
}

// In a v2 file a flipped payload byte is caught by the per-record CRC, and the error
// localizes the corruption to an exact record and byte offset in the named file.
TEST(WireReports, CrcLocalizesPayloadCorruption) {
  Reports r;
  r.objects.push_back({ObjectKind::kKv, ""});
  r.op_logs.resize(1);
  r.op_logs[0].push_back({1, 1, StateOpType::kKvGet, "k"});
  std::string path = TempPath("crc_flip.bin");
  ASSERT_TRUE(WriteReportsFile(path, r).ok());
  std::string bytes = ReadFileBytes(path);
  // First payload byte of the op-log record: header(13) + object frame(13) + object
  // payload(5) + op-log frame(13).
  const size_t oplog_payload = 13 + 13 + 5 + 13;
  bytes[oplog_payload] ^= 0x01;
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("crc mismatch"), std::string::npos) << back.error();
  EXPECT_NE(back.error().find("at offset " + std::to_string(oplog_payload - 13)),
            std::string::npos)
      << back.error();
  EXPECT_NE(back.error().find(path), std::string::npos) << back.error();
}

// --- Records at the read window's edges ---
// Section readers scan through one wire::kReadWindowBytes window. These layouts put
// record frames and payloads across, onto and past its edge; each file must read back
// exactly, and each corruption must fail with the code, message and {file, offset} that
// per-record reads gave.

constexpr uint64_t kWindow = wire::kReadWindowBytes;

// A request (31-byte record at offset 13), a response whose `first_body`-byte body sets
// where the records after it fall relative to the first window edge, a small request
// (41-byte record), a response larger than the window, a response whose payload is
// exactly one window, and a last small pair.
Trace WindowTrace(size_t first_body) {
  Trace t;
  auto request = [&](RequestId rid, RequestParams params) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kRequest;
    e.rid = rid;
    e.script = "/s";
    e.params = std::move(params);
    t.events.push_back(std::move(e));
  };
  auto response = [&](RequestId rid, size_t body_bytes) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kResponse;
    e.rid = rid;
    e.body.resize(body_bytes);
    for (size_t i = 0; i < body_bytes; i++) {
      e.body[i] = static_cast<char>('a' + (i * 7 + rid) % 26);
    }
    t.events.push_back(std::move(e));
  };
  request(1, {});
  response(1, first_body);
  request(2, {{"k", "v"}});
  response(2, kWindow + 1 - 12);  // Payload: rid + length prefix + body = window + 1.
  request(3, {});
  response(3, kWindow - 12);  // Payload exactly one window.
  request(4, {});
  response(4, 1);
  return t;
}

// File offset of record `index`'s frame (`index` = the record count for the end record).
uint64_t RecordFrameOffset(const std::string& bytes, size_t index) {
  uint64_t pos = wire::kEnvelopeHeaderBytes;
  for (size_t i = 0; i < index; i++) {
    uint8_t type = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    EXPECT_TRUE(wire::ParseRecordFrameV2(bytes.data() + pos, bytes.size() - pos, &type,
                                         &len, &crc));
    pos += wire::kRecordFrameBytesV2 + len;
  }
  return pos;
}

// Record 1 (the first response) ends 69 + first_body bytes into the file.
constexpr size_t kEndsOnEdge = kWindow - 69;

void ExpectCorruption(const Result<Trace>& got, const std::string& message,
                      const std::string& path, uint64_t offset) {
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << got.error();
  EXPECT_EQ(got.error(), message + " in " + path);
  EXPECT_EQ(got.status().file(), path) << got.error();
  EXPECT_EQ(got.status().offset(), offset) << got.error();
}

TEST(WireWindow, RecordsAcrossOnAndPastTheEdgeReadBack) {
  const std::string path = TempPath("window_edge.bin");
  // first_body walks record 1's end from 60 bytes before the edge to 20 past it, so
  // record 2's frame and then its payload straddle the edge, and records 1 and 2 each
  // end exactly on it once.
  for (size_t first_body = kEndsOnEdge - 60; first_body <= kEndsOnEdge + 20;
       first_body++) {
    SCOPED_TRACE("first_body=" + std::to_string(first_body));
    const Trace t = WindowTrace(first_body);
    ASSERT_TRUE(WriteTraceFile(path, t).ok());
    const std::string bytes = ReadFileBytes(path);
    ASSERT_EQ(bytes.size(), t.WireBytes());
    TraceReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    Trace streamed;
    for (size_t i = 0;; i++) {
      TraceEvent e;
      Result<bool> more = reader.Next(&e);
      ASSERT_TRUE(more.ok()) << more.error();
      if (!more.value()) {
        break;
      }
      const uint64_t payload = RecordFrameOffset(bytes, i) + wire::kRecordFrameBytesV2;
      EXPECT_EQ(reader.last_payload_offset(), payload) << "record " << i;
      EXPECT_EQ(reader.last_payload_bytes(), RecordFrameOffset(bytes, i + 1) - payload);
      streamed.events.push_back(std::move(e));
    }
    EXPECT_TRUE(TraceEq(t, streamed));
  }
}

TEST(WireWindow, TruncationAtTheEdgeFailsAsBefore) {
  const std::string path = TempPath("window_truncated.bin");
  struct Case {
    size_t first_body;
    size_t record;  // The record the cut lands in.
    bool mid_payload;
  };
  // Record 2's frame straddles the edge; record 2's payload straddles it; record 1 ends
  // on it (the cut leaves no byte of record 2's frame); and a cut inside record 3, whose
  // payload is larger than the window.
  for (const Case& c : {Case{kEndsOnEdge - 5, 2, false}, Case{kEndsOnEdge - 20, 2, true},
                        Case{kEndsOnEdge, 2, false}, Case{kEndsOnEdge, 3, true}}) {
    SCOPED_TRACE("first_body=" + std::to_string(c.first_body) + " record " +
                 std::to_string(c.record));
    ASSERT_TRUE(WriteTraceFile(path, WindowTrace(c.first_body)).ok());
    const std::string bytes = ReadFileBytes(path);
    const uint64_t frame = RecordFrameOffset(bytes, c.record);
    const uint64_t payload = frame + wire::kRecordFrameBytesV2;
    const uint64_t cut = c.record == 2 ? kWindow : payload + kWindow / 2;
    ASSERT_LE(frame, cut);
    ASSERT_LT(cut, RecordFrameOffset(bytes, c.record + 1));
    ASSERT_EQ(cut > payload, c.mid_payload);
    WriteFileBytes(path, bytes.substr(0, cut));
    if (c.mid_payload) {
      ExpectCorruption(
          ReadTraceFile(path),
          "wire: truncated record payload at offset " + std::to_string(payload), path,
          payload);
    } else {
      ExpectCorruption(ReadTraceFile(path),
                       "wire: truncated record frame at offset " + std::to_string(frame),
                       path, frame);
    }
  }
}

TEST(WireWindow, FlippedPayloadByteAcrossTheEdgeFailsItsCrc) {
  const std::string path = TempPath("window_flip.bin");
  // A byte of record 2's payload just past the edge, and one near the end of record 3's
  // payload, which is larger than the window.
  for (size_t record : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE("record " + std::to_string(record));
    ASSERT_TRUE(WriteTraceFile(path, WindowTrace(kEndsOnEdge - 20)).ok());
    std::string bytes = ReadFileBytes(path);
    const uint64_t frame = RecordFrameOffset(bytes, record);
    const uint64_t flip =
        record == 2 ? kWindow + 4 : RecordFrameOffset(bytes, record + 1) - 10;
    ASSERT_GT(flip, frame + wire::kRecordFrameBytesV2);
    bytes[flip] ^= 0x01;
    WriteFileBytes(path, bytes);
    const int type = record == 2 ? wire::kTraceRecRequest : wire::kTraceRecResponse;
    ExpectCorruption(ReadTraceFile(path),
                     "wire: crc mismatch in record " + std::to_string(record) +
                         " (type " + std::to_string(type) + ") at offset " +
                         std::to_string(frame),
                     path, frame);
  }
}

TEST(WireWindow, TrailingByteAfterTheEndRecordFails) {
  const std::string path = TempPath("window_trailing.bin");
  // The end record inside the first window, and after payloads larger than it.
  for (const Trace& t : {SampleTrace(), WindowTrace(kEndsOnEdge)}) {
    ASSERT_TRUE(WriteTraceFile(path, t).ok());
    const std::string bytes = ReadFileBytes(path);
    WriteFileBytes(path, bytes + "x");
    ExpectCorruption(ReadTraceFile(path), "wire: trailing bytes after end record", path,
                     bytes.size());
  }
}

// v1 files (9-byte frames, no CRC, bare end record) are no longer read: the envelope
// version alone rejects them as unsupported, naming the file, before any record is parsed.
TEST(WireReports, RejectsV1FilesAsUnsupportedVersion) {
  std::string bytes = "OROCHIWF";
  AppendU32(&bytes, 1);  // Format version 1.
  bytes.push_back(static_cast<char>(wire::Section::kReports));
  std::string object;
  object.push_back(0);  // ObjectKind::kRegister.
  AppendU32(&object, 3);
  object += "reg";
  bytes.push_back(1);  // v1 frame: u8 type, u64 length, payload.
  AppendU64(&bytes, object.size());
  bytes += object;
  bytes.push_back(0);  // v1 end record: type 0, length 0.
  AppendU64(&bytes, 0);
  std::string path = TempPath("v1_rejected.bin");
  WriteFileBytes(path, bytes);
  Result<Reports> back = ReadReportsFile(path);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.error().find("unsupported format version 1"), std::string::npos)
      << back.error();
  EXPECT_NE(back.error().find(path), std::string::npos) << back.error();
}

// Drive Collector::Flush through record → flush → record → flush: each epoch's spill file
// decodes independently and holds only its own epoch's events.
TEST(WireTrace, CollectorFlushWritesAndResets) {
  Collector collector;
  collector.RecordRequest(1, "/a", {{"k", "v"}});
  collector.RecordResponse(1, "body1");
  std::string epoch1 = TempPath("flush_epoch1.bin");
  ASSERT_TRUE(collector.Flush(epoch1).ok());
  EXPECT_TRUE(collector.trace().events.empty());

  collector.RecordRequest(2, "/b", {});
  collector.RecordResponse(2, "body2");
  std::string epoch2 = TempPath("flush_epoch2.bin");
  ASSERT_TRUE(collector.Flush(epoch2).ok());

  Result<Trace> t1 = ReadTraceFile(epoch1);
  Result<Trace> t2 = ReadTraceFile(epoch2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_EQ(t1.value().events.size(), 2u);
  ASSERT_EQ(t2.value().events.size(), 2u);
  EXPECT_EQ(t1.value().events[0].rid, 1u);
  EXPECT_EQ(t2.value().events[0].rid, 2u);
  EXPECT_EQ(t2.value().events[1].body, "body2");
}

// TakeTrace must leave a valid, recordable trace behind (the PR's Collector race fix).
TEST(WireTrace, TakeTraceLeavesEmptyValidTrace) {
  Collector collector;
  collector.RecordRequest(1, "/a", {});
  collector.RecordResponse(1, "x");
  Trace first = collector.TakeTrace();
  EXPECT_EQ(first.events.size(), 2u);
  EXPECT_TRUE(collector.trace().events.empty());
  collector.RecordRequest(2, "/b", {});
  EXPECT_EQ(collector.trace().events.size(), 1u);
}

}  // namespace
}  // namespace orochi

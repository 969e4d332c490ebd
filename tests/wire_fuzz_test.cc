// Deterministic wire-format corruption fuzzer: a seeded byte-flip + truncation sweep
// over every spill-file kind the verifier consumes — trace, reports (including the
// seekable op-log sections the out-of-core index point-reads), shard manifest, and state
// snapshot. The invariant under attack is the reader/auditor contract at the trust
// boundary:
//
//   1. never crash — every mutation must come back as a clean error Result or a REJECT;
//   2. never falsely accept — an audit that still ACCEPTs a mutated epoch must produce
//      the pristine final_state, i.e. the mutation was semantically invisible (a flipped
//      opaque group tag is the canonical example: grouping is untrusted advice);
//   3. the in-memory and streamed paths must classify every mutation identically —
//      same error, same verdict, same reason, same final state — so a validator that
//      drifts between the resident reader and the streaming index shows up here.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/stream/stream_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// Little-endian field accessors for forging exact bytes of a record payload in place.
uint32_t GetU32At(const std::string& b, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(b[off + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void PutU32At(std::string* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    (*b)[off + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t GetU64At(const std::string& b, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[off + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void PutU64At(std::string* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    (*b)[off + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Payload locations of every v3 segmented op-log record in a reports file, in file order.
struct SegRecLoc {
  size_t payload;  // Offset of the payload (just past the 13-byte frame).
  size_t len;      // Payload length.
};

std::vector<SegRecLoc> FindSegmentRecords(const std::string& bytes) {
  std::vector<SegRecLoc> out;
  size_t pos = wire::kEnvelopeHeaderBytes;
  while (pos + wire::kRecordFrameBytesV2 <= bytes.size()) {
    uint8_t type = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    if (!wire::ParseRecordFrameV2(bytes.data() + pos, bytes.size() - pos, &type, &len,
                                  &crc)) {
      break;
    }
    if (type == wire::kEndRecord) {
      break;
    }
    if (type == wire::kReportsRecOpLogSegment) {
      out.push_back({pos + wire::kRecordFrameBytesV2, static_cast<size_t>(len)});
    }
    pos += wire::kRecordFrameBytesV2 + static_cast<size_t>(len);
  }
  return out;
}

// Re-stamps the frame CRC of the record whose payload begins at `payload_off`, so a
// forged payload passes the wire layer and reaches the segment validator itself.
void RestampRecordCrc(std::string* bytes, size_t payload_off, size_t len) {
  uint32_t crc = Crc32c(bytes->data() + payload_off, len);
  for (int i = 0; i < 4; i++) {
    (*bytes)[payload_off - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

// Flips one payload byte of a random v2 record and re-stamps that record's CRC, so the
// file passes every wire-level check and the corruption reaches the decoders and the
// audit itself — the adversarial case CRCs cannot catch (a tamperer can recompute them).
// Returns the pristine bytes unchanged if the file has no non-empty records.
std::string MutatePayloadCrcFixed(const std::string& pristine, Rng* rng,
                                  std::string* label) {
  std::string bytes = pristine;
  struct Rec {
    size_t frame;  // Offset of the 13-byte frame.
    size_t len;    // Payload length.
  };
  std::vector<Rec> records;
  size_t pos = wire::kEnvelopeHeaderBytes;
  while (pos + wire::kRecordFrameBytesV2 <= bytes.size()) {
    uint8_t type = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    if (!wire::ParseRecordFrameV2(bytes.data() + pos, bytes.size() - pos, &type, &len,
                                  &crc)) {
      break;
    }
    if (type == wire::kEndRecord) {
      break;
    }
    if (len > 0) {
      records.push_back({pos, static_cast<size_t>(len)});
    }
    pos += wire::kRecordFrameBytesV2 + static_cast<size_t>(len);
  }
  if (records.empty()) {
    *label = "crcfix-noop";
    return bytes;
  }
  const Rec& rec = records[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(records.size()) - 1))];
  const size_t payload = rec.frame + wire::kRecordFrameBytesV2;
  size_t off = payload + static_cast<size_t>(
                             rng->UniformInt(0, static_cast<int64_t>(rec.len) - 1));
  uint8_t mask = static_cast<uint8_t>(rng->UniformInt(1, 255));
  bytes[off] = static_cast<char>(static_cast<uint8_t>(bytes[off]) ^ mask);
  uint32_t crc = Crc32c(bytes.data() + payload, rec.len);
  for (int i = 0; i < 4; i++) {
    bytes[rec.frame + 9 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  *label = "crcfix-flip@" + std::to_string(off) + "^" + std::to_string(mask);
  return bytes;
}

// One mutation: flip a random byte (XOR with a nonzero mask, so the file always
// changes), truncate at a random length, or flip a payload byte with the record CRC
// re-stamped (so the corruption survives the wire layer and hits the audit).
std::string Mutate(const std::string& pristine, Rng* rng, std::string* label) {
  if (rng->Chance(0.34)) {
    return MutatePayloadCrcFixed(pristine, rng, label);
  }
  std::string bytes = pristine;
  if (rng->Chance(0.25) && bytes.size() > 1) {
    size_t len = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    bytes.resize(len);
    *label = "truncate@" + std::to_string(len);
  } else {
    size_t off = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    uint8_t mask = static_cast<uint8_t>(rng->UniformInt(1, 255));
    bytes[off] = static_cast<char>(static_cast<uint8_t>(bytes[off]) ^ mask);
    *label = "flip@" + std::to_string(off) + "^" + std::to_string(mask);
  }
  return bytes;
}

// Outcome of one audit attempt, flattened for cross-path comparison.
struct Outcome {
  bool file_error = false;
  std::string error;
  bool accepted = false;
  std::string reason;
  std::string fingerprint;  // Empty unless accepted.

  bool operator==(const Outcome& o) const {
    return file_error == o.file_error && error == o.error && accepted == o.accepted &&
           reason == o.reason && fingerprint == o.fingerprint;
  }
};

Outcome FromFeed(const Result<AuditResult>& r) {
  Outcome out;
  if (!r.ok()) {
    out.file_error = true;
    out.error = r.error();
    return out;
  }
  out.accepted = r.value().accepted;
  out.reason = r.value().reason;
  if (out.accepted) {
    out.fingerprint = InitialStateFingerprint(r.value().final_state);
  }
  return out;
}

struct FuzzFixture {
  Workload w;
  InitialState epoch2_initial;     // The state epoch 1's accepted audit handed off.
  std::string state_path;          // Snapshot of epoch2_initial (the state spill file).
  std::string trace_path;          // Epoch 2 trace (shard-stamped for the manifest sweep).
  std::string reports_path;        // Epoch 2 reports.
  std::string manifest_path;       // Single-shard manifest naming the epoch-2 pair.
  std::string initial_state_fp;    // Fingerprint of epoch2_initial.
  Outcome reference;               // The pristine epoch-2 verdict (accepted).
};

AuditOptions FuzzOptions() {
  AuditOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  options.max_resident_bytes = 512;  // Tiny: the sweep exercises paging everywhere.
  return options;
}

// Serves two epochs of the counter workload on one continuing server (epoch 1 seeds a
// rich state: registers, kv counters, db rows), audits epoch 1, snapshots its final
// state, and spills epoch 2 — the epoch every mutation sweep below audits. The counter
// scripts echo every input and read every object kind, so mutations have almost nowhere
// semantically-invisible to hide (opaque group tags being the deliberate exception).
FuzzFixture BuildFixture() {
  FuzzFixture fx;
  fx.w.app = BuildCounterApp();
  EXPECT_TRUE(
      fx.w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)").ok());

  const std::string dir = ::testing::TempDir();
  std::string trace1 = dir + "/fuzz_e1_trace.bin";
  std::string reports1 = dir + "/fuzz_e1_reports.bin";
  fx.trace_path = dir + "/fuzz_e2_trace.bin";
  fx.reports_path = dir + "/fuzz_e2_reports.bin";

  ServerCore core(&fx.w.app, fx.w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  RequestId rid = 1;
  for (int epoch = 0; epoch < 2; epoch++) {
    {
      ThreadServer server(&core, &collector, /*num_workers=*/4);
      for (size_t i = 0; i < 36; i++) {
        RequestParams params;
        params["key"] = "k" + std::to_string(i % 5);
        params["who"] = "w" + std::to_string(i % 7);
        server.Submit(rid++, (i % 4 == 3) ? "/counter/read" : "/counter/hit", params);
      }
      server.Drain();
    }
    if (epoch == 0) {
      EXPECT_TRUE(collector.Flush(trace1).ok());
      EXPECT_TRUE(core.ExportReports(reports1).ok());
    } else {
      // The manifest sweep checks stamped-id validation, so stamp the epoch-2 trace.
      Trace t = collector.TakeTrace();
      EXPECT_TRUE(WriteTraceFile(fx.trace_path, t, /*shard_id=*/1).ok());
      EXPECT_TRUE(core.ExportReports(fx.reports_path).ok());
    }
  }

  AuditSession session = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
  Result<AuditResult> e1 = session.FeedEpochFilesStreamed(trace1, reports1);
  EXPECT_TRUE(e1.ok() && e1.value().accepted)
      << (e1.ok() ? e1.value().reason : e1.error());
  fx.epoch2_initial = session.state();
  fx.initial_state_fp = InitialStateFingerprint(fx.epoch2_initial);
  fx.state_path = dir + "/fuzz_state1.bin";
  EXPECT_TRUE(session.SaveState(fx.state_path).ok());

  ShardManifest manifest;
  manifest.epoch = 2;
  manifest.shards.push_back({1, "fuzz_e2_trace.bin", "fuzz_e2_reports.bin"});
  fx.manifest_path = dir + "/fuzz_e2.manifest";
  EXPECT_TRUE(WriteShardManifestFile(fx.manifest_path, manifest).ok());

  Result<AuditResult> e2 = session.FeedEpochFilesStreamed(fx.trace_path, fx.reports_path);
  fx.reference = FromFeed(e2);
  EXPECT_TRUE(fx.reference.accepted) << fx.reference.reason << fx.reference.error;
  return fx;
}

// Shared sweep bookkeeping: every mutation must land in {error, reject,
// semantically-invisible accept}; the caller-specific body classifies one mutation.
struct SweepTally {
  size_t errors = 0;
  size_t rejects = 0;
  size_t benign_accepts = 0;
};

void CheckOutcomeAgainstReference(const Outcome& got, const Outcome& reference,
                                  const std::string& what, SweepTally* tally) {
  if (got.file_error) {
    tally->errors++;
    return;
  }
  if (!got.accepted) {
    EXPECT_FALSE(got.reason.empty()) << what;
    tally->rejects++;
    return;
  }
  // An accepted mutation must be semantically invisible: bit-identical final state.
  EXPECT_EQ(got.fingerprint, reference.fingerprint)
      << what << ": mutated epoch ACCEPTed with a different final state";
  tally->benign_accepts++;
}

TEST(WireFuzz, TraceAndReportsMutationsNeverCrashAndNeverFalselyAccept) {
  FuzzFixture fx = BuildFixture();
  const std::string pristine_trace = ReadAll(fx.trace_path);
  const std::string pristine_reports = ReadAll(fx.reports_path);
  const std::string dir = ::testing::TempDir();

  struct Kind {
    const char* name;
    const std::string* pristine;
    bool mutate_trace;
  };
  const Kind kinds[] = {{"trace", &pristine_trace, true},
                        {"reports", &pristine_reports, false}};
  const uint64_t base_seed = TestBaseSeed(0x5EED0000);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  for (const Kind& kind : kinds) {
    Rng rng(base_seed + (kind.mutate_trace ? 1 : 2));
    SweepTally tally;
    for (int i = 0; i < 120; i++) {
      std::string label;
      std::string mutated = Mutate(*kind.pristine, &rng, &label);
      std::string mutated_path = dir + "/fuzz_mut_" + kind.name + ".bin";
      WriteAll(mutated_path, mutated);
      const std::string trace = kind.mutate_trace ? mutated_path : fx.trace_path;
      const std::string reports = kind.mutate_trace ? fx.reports_path : mutated_path;
      const std::string what = std::string(kind.name) + " " + label;

      AuditSession streamed =
          AuditSession::Open(&fx.w.app, FuzzOptions(), fx.epoch2_initial);
      Outcome got = FromFeed(streamed.FeedEpochFilesStreamed(trace, reports));
      CheckOutcomeAgainstReference(got, fx.reference, what + " (streamed)", &tally);

      // The in-memory reader must classify the mutation identically, byte for byte —
      // the two paths share one validator, and this sweep keeps them honest.
      AuditSession in_memory =
          AuditSession::Open(&fx.w.app, FuzzOptions(), fx.epoch2_initial);
      Outcome mem = FromFeed(FeedDecodedFiles(&in_memory, trace, reports));
      EXPECT_TRUE(mem == got) << what << ": streamed {" << got.error << "|" << got.reason
                              << "} vs in-memory {" << mem.error << "|" << mem.reason
                              << "}";
    }
    // The sweep must have bitten: wire-level rejects AND audit-level rejects both occur.
    EXPECT_GT(tally.errors, 10u) << kind.name;
    EXPECT_GT(tally.rejects, 0u) << kind.name;
  }
}

TEST(WireFuzz, ManifestMutationsNeverCrashAndNeverFalselyAccept) {
  FuzzFixture fx = BuildFixture();
  const std::string pristine = ReadAll(fx.manifest_path);
  const std::string mutated_path = ::testing::TempDir() + "/fuzz_mut.manifest";
  const uint64_t base_seed = TestBaseSeed(0x5EED0000);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Rng rng(base_seed + 3);
  SweepTally tally;
  for (int i = 0; i < 120; i++) {
    std::string label;
    WriteAll(mutated_path, Mutate(pristine, &rng, &label));
    AuditSession session =
        AuditSession::Open(&fx.w.app, FuzzOptions(), fx.epoch2_initial);
    Outcome got = FromFeed(session.FeedShardedEpoch(mutated_path));
    CheckOutcomeAgainstReference(got, fx.reference, "manifest " + label, &tally);
  }
  // Most manifest bytes are structural (paths, ids, frames): flips overwhelmingly error.
  EXPECT_GT(tally.errors, 60u);
}

TEST(WireFuzz, StateSnapshotMutationsNeverCrashAndLoadDefensively) {
  FuzzFixture fx = BuildFixture();
  const std::string pristine = ReadAll(fx.state_path);
  const std::string mutated_path = ::testing::TempDir() + "/fuzz_mut_state.bin";
  const uint64_t base_seed = TestBaseSeed(0x5EED0000);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Rng rng(base_seed + 4);
  size_t read_errors = 0;
  size_t loaded = 0;
  for (int i = 0; i < 120; i++) {
    std::string label;
    WriteAll(mutated_path, Mutate(pristine, &rng, &label));
    Result<AuditSession> opened =
        AuditSession::OpenFromStateFile(&fx.w.app, FuzzOptions(), mutated_path);
    if (!opened.ok()) {
      read_errors++;
      continue;
    }
    loaded++;
    // A state file is the verifier's own artifact, so a decodable mutation is a valid
    // (different) starting state, not an attack the audit must reject. Two guarantees
    // still hold: auditing from it never crashes, and if the loaded state is
    // bit-identical to the pristine snapshot the verdict must be too.
    Result<AuditResult> fed =
        opened.value().FeedEpochFilesStreamed(fx.trace_path, fx.reports_path);
    Outcome got = FromFeed(fed);
    if (InitialStateFingerprint(opened.value().state()) == fx.initial_state_fp) {
      EXPECT_TRUE(got == fx.reference) << "state " << label;
    } else if (got.accepted) {
      // The epoch replayed cleanly from a different state: its outputs cannot have
      // depended on anything the mutation changed, so the end state must differ from
      // the pristine one in exactly the mutated (unread) values — never equal-by-luck
      // with a different history.
      EXPECT_NE(got.fingerprint, std::string()) << "state " << label;
    }
  }
  EXPECT_GT(read_errors, 40u);
  EXPECT_GT(loaded + read_errors, 0u);
}

// One-hot-object fixture for the v3 segment sweeps: every request hits the same counter
// key with a long user string, so the shared `hits` db object's op-log (every statement
// carries the ~800-byte user) crosses wire::kMaxOpLogSegmentBytes and the spill file
// carries kReportsRecOpLogSegment records.
struct SegmentedFixture {
  Workload w;
  std::string trace_path;
  std::string reports_path;
  Outcome reference;  // The pristine verdict (accepted).
};

SegmentedFixture BuildSegmentedFixture() {
  SegmentedFixture fx;
  fx.w.app = BuildCounterApp();
  EXPECT_TRUE(
      fx.w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)").ok());
  const std::string dir = ::testing::TempDir();
  fx.trace_path = dir + "/seg_trace.bin";
  fx.reports_path = dir + "/seg_reports.bin";

  ServerCore core(&fx.w.app, fx.w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  {
    ThreadServer server(&core, &collector, /*num_workers=*/4);
    const std::string pad(800, 'x');
    RequestId rid = 1;
    for (size_t i = 0; i < 240; i++) {
      RequestParams params;
      params["key"] = "hot";
      params["who"] = "u" + std::to_string(i % 7) + pad;
      server.Submit(rid++, (i % 4 == 3) ? "/counter/read" : "/counter/hit", params);
    }
    server.Drain();
  }
  EXPECT_TRUE(collector.Flush(fx.trace_path).ok());
  EXPECT_TRUE(core.ExportReports(fx.reports_path).ok());

  AuditSession session = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
  fx.reference = FromFeed(session.FeedEpochFilesStreamed(fx.trace_path, fx.reports_path));
  EXPECT_TRUE(fx.reference.accepted) << fx.reference.reason << fx.reference.error;
  return fx;
}

// Forges exact segment-prefix fields — duplicate segment_seq, out-of-order segment_seq,
// overlapping entry range, redirected object id — with the record CRC re-stamped, so each
// forgery passes every wire-level check and the segment validator itself must catch it.
// Both readers must reject (never crash, never falsely accept) and classify identically.
TEST(WireFuzz, SegmentedOpLogPrefixForgeriesRejectIdenticallyOnBothPaths) {
  SegmentedFixture fx = BuildSegmentedFixture();
  const std::string pristine = ReadAll(fx.reports_path);
  std::vector<SegRecLoc> segs = FindSegmentRecords(pristine);
  ASSERT_GE(segs.size(), 2u) << "fixture must spill at least two v3 segments";
  // Prefix layout (relative to the payload): u32 object @0, u32 segment_seq @4,
  // u64 first_seqnum @8, u64 count @16. All forgeries edit the SECOND segment, so the
  // validator has per-object sequencing state to check against.
  const size_t p0 = segs[0].payload;
  const size_t p1 = segs[1].payload;

  struct Forgery {
    const char* name;
    std::function<void(std::string*)> apply;
  };
  const std::vector<Forgery> forgeries = {
      {"duplicate segment_seq",
       [&](std::string* b) { PutU32At(b, p1 + 4, GetU32At(*b, p0 + 4)); }},
      {"out-of-order segment_seq",
       [&](std::string* b) { PutU32At(b, p1 + 4, GetU32At(*b, p1 + 4) + 1); }},
      {"overlapping entry range",
       [&](std::string* b) { PutU64At(b, p1 + 8, GetU64At(*b, p1 + 8) - 1); }},
      {"wrong object (existing)",
       [&](std::string* b) {
         uint32_t object = GetU32At(*b, p1);
         PutU32At(b, p1, object == 0 ? 1 : 0);
       }},
      {"wrong object (unknown)",
       [&](std::string* b) { PutU32At(b, p1, 0xfffffffeu); }},
  };

  const std::string mutated_path = ::testing::TempDir() + "/seg_forged_reports.bin";
  for (const Forgery& forgery : forgeries) {
    std::string bytes = pristine;
    forgery.apply(&bytes);
    RestampRecordCrc(&bytes, segs[1].payload, segs[1].len);
    WriteAll(mutated_path, bytes);

    AuditSession streamed = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
    Outcome got = FromFeed(streamed.FeedEpochFilesStreamed(fx.trace_path, mutated_path));
    EXPECT_FALSE(got.accepted) << forgery.name;
    EXPECT_TRUE(got.file_error) << forgery.name
                                << ": a forged segment prefix must fail the read";
    EXPECT_FALSE(got.error.empty()) << forgery.name;

    AuditSession in_memory = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
    Outcome mem = FromFeed(FeedDecodedFiles(&in_memory, fx.trace_path, mutated_path));
    EXPECT_TRUE(mem == got) << forgery.name << ": streamed {" << got.error << "} vs "
                            << "in-memory {" << mem.error << "}";
  }
}

// The generic mutation sweep pointed at a reports file that actually contains v3
// segments, so random flips/truncations/CRC-fixed flips land inside segment records and
// their prefixes too. Same contract as the main sweep: never crash, never falsely
// accept, and the streamed and in-memory readers classify every mutation identically.
TEST(WireFuzz, SegmentedReportsMutationsNeverCrashAndNeverFalselyAccept) {
  SegmentedFixture fx = BuildSegmentedFixture();
  const std::string pristine = ReadAll(fx.reports_path);
  ASSERT_GE(FindSegmentRecords(pristine).size(), 2u);
  const std::string mutated_path = ::testing::TempDir() + "/seg_mut_reports.bin";
  const uint64_t base_seed = TestBaseSeed(0x5EED0000);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Rng rng(base_seed + 5);
  SweepTally tally;
  for (int i = 0; i < 48; i++) {
    std::string label;
    WriteAll(mutated_path, Mutate(pristine, &rng, &label));
    const std::string what = "segmented-reports " + label;

    AuditSession streamed = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
    Outcome got = FromFeed(streamed.FeedEpochFilesStreamed(fx.trace_path, mutated_path));
    CheckOutcomeAgainstReference(got, fx.reference, what + " (streamed)", &tally);

    AuditSession in_memory = AuditSession::Open(&fx.w.app, FuzzOptions(), fx.w.initial);
    Outcome mem = FromFeed(FeedDecodedFiles(&in_memory, fx.trace_path, mutated_path));
    EXPECT_TRUE(mem == got) << what << ": streamed {" << got.error << "|" << got.reason
                            << "} vs in-memory {" << mem.error << "|" << mem.reason
                            << "}";
  }
  EXPECT_GT(tally.errors, 5u);
}

}  // namespace
}  // namespace orochi

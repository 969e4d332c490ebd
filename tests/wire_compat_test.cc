// Mixed-version back-compat gate: golden spool files checked in at an OLDER wire format
// version must keep auditing bit-identically under the current binary. The golden pair
// under tests/data/ was written by a v2 build (before the v3 segmented-op-log bump);
// auditing it here proves a verifier upgrade never strands already-spilled epochs.
//
// Regenerating the goldens (only needed when a *golden-breaking* change is intended):
//   OROCHI_REGEN_GOLDEN=1 ./wire_compat_test
// serves the fixture workload fresh, spills it at the build's current kFormatVersion,
// and rewrites the expected-verdict file — so a regenerated golden documents the version
// it was written at, and this test keeps pinning it from then on.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/stream/stream_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

const char* DataDir() { return OROCHI_TEST_DATA_DIR; }

std::string TracePath() { return std::string(DataDir()) + "/v2_counter_trace.bin"; }
std::string ReportsPath() { return std::string(DataDir()) + "/v2_counter_reports.bin"; }
std::string ExpectedPath() { return std::string(DataDir()) + "/v2_counter_expected.txt"; }

// Deterministic fixture: same app + initial state every run, so the golden files (served
// once at regen time) audit against a freshly built context in any later build.
Workload GoldenWorkload() {
  constexpr size_t kRequests = 64;
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < kRequests; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(i % 5);
    item.params["who"] = "w" + std::to_string(i % 7);
    w.items.push_back(std::move(item));
  }
  return w;
}

// Expected-verdict sidecar: line 1 = format version the goldens were written at,
// line 2 = FNV-1a hash of the accepted final state's InitialStateFingerprint (the
// fingerprint itself is a multi-line canonical dump, so the sidecar stores its hash).
struct GoldenExpectation {
  uint32_t version = 0;
  uint64_t final_state_hash = 0;
};

bool ReadExpectation(GoldenExpectation* out) {
  std::ifstream in(ExpectedPath());
  if (!in) {
    return false;
  }
  uint64_t v = 0;
  if (!(in >> v >> out->final_state_hash)) {
    return false;
  }
  out->version = static_cast<uint32_t>(v);
  return true;
}

uint32_t FileFormatVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char header[wire::kEnvelopeHeaderBytes] = {};
  if (!in.read(header, sizeof(header))) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(header[8 + i])) << (8 * i);
  }
  return v;
}

void MaybeRegenerateGoldens() {
  if (std::getenv("OROCHI_REGEN_GOLDEN") == nullptr) {
    return;
  }
  Workload w = GoldenWorkload();
  ServedWorkload served = ServeWorkload(w);
  ASSERT_TRUE(WriteTraceFile(TracePath(), served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(ReportsPath(), served.reports).ok());
  AuditOptions opts;
  opts.num_threads = 1;
  opts.max_group_size = 8;
  AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> got = FeedDecodedFiles(&session, TracePath(), ReportsPath());
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_TRUE(got.value().accepted) << got.value().reason;
  std::ofstream out(ExpectedPath(), std::ios::trunc);
  out << wire::kFormatVersion << "\n"
      << FnvHash(InitialStateFingerprint(got.value().final_state)) << "\n";
  ASSERT_TRUE(out.good());
  std::fprintf(stderr, "regenerated goldens at wire v%u under %s\n", wire::kFormatVersion,
               DataDir());
}

TEST(WireCompat, GoldenSpoolFilesCarryAnAcceptedOlderVersion) {
  MaybeRegenerateGoldens();
  GoldenExpectation expected;
  ASSERT_TRUE(ReadExpectation(&expected))
      << "missing goldens under " << DataDir()
      << " — run OROCHI_REGEN_GOLDEN=1 ./wire_compat_test";
  EXPECT_EQ(FileFormatVersion(TracePath()), expected.version);
  EXPECT_EQ(FileFormatVersion(ReportsPath()), expected.version);
  // The gate is only meaningful while the goldens are OLDER than (or equal to) what the
  // binary writes, and still inside the accepted window.
  EXPECT_GE(expected.version, wire::kMinFormatVersion);
  EXPECT_LE(expected.version, wire::kFormatVersion);
}

// The actual back-compat gate: the old-version spool pair must audit to the exact
// verdict recorded when it was written — streamed and in-memory, several thread counts.
TEST(WireCompat, OlderSpoolAuditsBitIdenticallyUnderCurrentBinary) {
  MaybeRegenerateGoldens();
  GoldenExpectation expected;
  ASSERT_TRUE(ReadExpectation(&expected))
      << "missing goldens under " << DataDir()
      << " — run OROCHI_REGEN_GOLDEN=1 ./wire_compat_test";
  Workload w = GoldenWorkload();
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AuditOptions opts;
    opts.num_threads = threads;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 4096;
    AuditSession streamed = AuditSession::Open(&w.app, opts, w.initial);
    Result<AuditResult> got = streamed.FeedEpochFilesStreamed(TracePath(), ReportsPath());
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(FnvHash(InitialStateFingerprint(got.value().final_state)),
              expected.final_state_hash);

    AuditSession in_memory = AuditSession::Open(&w.app, opts, w.initial);
    Result<AuditResult> mem = FeedDecodedFiles(&in_memory, TracePath(), ReportsPath());
    ASSERT_TRUE(mem.ok()) << mem.error();
    EXPECT_TRUE(mem.value().accepted) << mem.value().reason;
    EXPECT_EQ(FnvHash(InitialStateFingerprint(mem.value().final_state)),
              expected.final_state_hash);
  }
}

}  // namespace
}  // namespace orochi

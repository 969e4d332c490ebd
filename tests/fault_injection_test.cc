// Fault-tolerance of the audit pipeline under a deterministic injected-fault I/O
// environment (src/common/io_env.h). Three properties are on trial:
//
//   1. Taxonomy soundness (200-schedule sweep): whatever faults fire, the audit never
//      crashes, never falsely accepts (an accept always reproduces the server's true
//      final state), and never misreports an injected I/O fault as server tampering.
//      Schedules with only absorbable faults (transient errors, short reads) must accept.
//   2. Atomic spills (kill-point sweep): crash the writer after every possible write-side
//      operation; a reader of the spill path always sees the previous complete file or
//      the new complete file, never a torn prefix.
//   3. Resumable audits: an audit killed in ANY phase with a checkpoint journal resumes
//      to a bit-identical verdict/reason/final_state at every thread count and budget,
//      and actually reuses journaled progress instead of redoing it — pass-2 chunk tasks
//      (kill mid-pass-2) and the pass-3 compare watermark (kill mid-compare); a kill
//      mid-Prepare reruns Prepare. A journal of another epoch or an older journal layout
//      contributes nothing.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/io_env.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/objects/wire_primitives.h"
#include "src/server/collector.h"
#include "src/server/tamper.h"
#include "src/stream/stream_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

Workload CounterWorkload(size_t n) {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(i % 5);
    item.params["who"] = "w" + std::to_string(i % 7);
    w.items.push_back(std::move(item));
  }
  return w;
}

// An injected read fault surfaces with an I/O code — a permanent EIO as kError, a
// transient error that outlived every retry as kTransient — located in one of the epoch's
// two spill files at the failing read's offset.
void ExpectLocatedReadFault(const Status& st, const std::string& trace_path,
                            const std::string& reports_path, int schedule) {
  EXPECT_TRUE(st.code() == StatusCode::kError || st.code() == StatusCode::kTransient)
      << "schedule " << schedule << ": " << st.error();
  EXPECT_TRUE(st.file() == trace_path || st.file() == reports_path)
      << "schedule " << schedule << " located the fault in '" << st.file() << "'";
  EXPECT_NE(st.offset(), Status::kNoOffset)
      << "schedule " << schedule << ": " << st.error();
}

// --- 1. The 200-schedule fault sweep ---

TEST(FaultInjection, SweepNeverFalselyAcceptsOrMisreportsFaults) {
  const uint64_t base_seed = TestBaseSeed(0xFA017);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Workload w = CounterWorkload(48);
  ServedWorkload served = ServeWorkload(w);
  const std::string truth = InitialStateFingerprint(served.final_state);
  const std::string trace_path = ::testing::TempDir() + "/fi_sweep_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_sweep_reports.bin";

  constexpr int kSchedules = 200;
  int accepted = 0;
  int io_errors = 0;
  int write_failures = 0;
  uint64_t faults_fired = 0;
  for (int s = 0; s < kSchedules; s++) {
    FaultOptions fo;
    fo.seed = base_seed + static_cast<uint64_t>(s);
    // Absorbable faults in every schedule: retries and short-read loops must hide them.
    fo.p_read_transient = 0.02;
    fo.p_short_read = 0.10;
    const bool absorbable_only = (s % 3 == 0);
    if (!absorbable_only) {
      fo.p_read_error = 0.002;
      fo.p_append_error = 0.004;
      fo.p_sync_error = 0.004;
      fo.p_rename_error = 0.004;
    }
    FaultInjectingEnv env(nullptr, fo);

    Status wt = WriteTraceFile(trace_path, served.trace, /*shard_id=*/0, &env);
    Status wr = wt.ok() ? WriteReportsFile(reports_path, served.reports, &env) : wt;
    if (!wt.ok() || !wr.ok()) {
      // A failed spill is an error at write time — and an atomic one: the audit below
      // must not even see a file from this schedule, so skip to the next.
      EXPECT_FALSE(absorbable_only) << "schedule " << s << ": " << wt.error() << wr.error();
      EXPECT_EQ(wt.ok() ? wr.code() : wt.code(), StatusCode::kError);
      write_failures++;
      faults_fired += env.faults_injected();
      continue;
    }

    AuditOptions opts;
    opts.num_threads = 2;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 2048;
    opts.io_env = &env;
    AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> r = session.FeedEpochFilesStreamed(trace_path, reports_path);
    faults_fired += env.faults_injected();
    switch (ClassifyAuditOutcome(r)) {
      case AuditOutcome::kAccepted:
        accepted++;
        // No falsely-accepted epoch: an accept must reproduce the true final state.
        EXPECT_EQ(InitialStateFingerprint(r.value().final_state), truth)
            << "schedule " << s;
        break;
      case AuditOutcome::kIoError: {
        EXPECT_FALSE(absorbable_only)
            << "schedule " << s << " surfaced an absorbable fault: " << r.error();
        io_errors++;
        ExpectLocatedReadFault(r.status(), trace_path, reports_path, s);
        break;
      }
      case AuditOutcome::kRejected:
        ADD_FAILURE() << "schedule " << s
                      << " misreported an injected I/O fault as tampering: "
                      << r.value().reason;
        break;
      case AuditOutcome::kConfigError:
        ADD_FAILURE() << "schedule " << s << " misclassified as config error: " << r.error();
        break;
    }
  }
  // The sweep must genuinely exercise both sides of the taxonomy.
  EXPECT_GE(accepted, kSchedules / 3) << "absorbable-only schedules must all accept";
  EXPECT_GT(io_errors + write_failures, 0);
  EXPECT_GT(faults_fired, 0u);
}

// --- 2. Kill-point sweeps: atomic spill visibility ---

TEST(FaultInjection, TraceSpillKillPointSweepNeverExposesPartialFile) {
  ServedWorkload a = ServeWorkload(CounterWorkload(10));
  ServedWorkload b = ServeWorkload(CounterWorkload(20));
  const std::string path = ::testing::TempDir() + "/fi_kill_trace.bin";

  // Learn the write-op count N of spilling version B, then crash after 0..N-1 ops.
  FaultInjectingEnv counting(nullptr, FaultOptions{});
  ASSERT_TRUE(WriteTraceFile(path, b.trace, /*shard_id=*/0, &counting).ok());
  const uint64_t n_ops = counting.write_ops();
  ASSERT_GT(n_ops, 2u);

  for (uint64_t k = 0; k < n_ops; k++) {
    ASSERT_TRUE(WriteTraceFile(path, a.trace).ok());  // Previous complete epoch.
    FaultOptions fo;
    fo.crash_after_writes = k;
    FaultInjectingEnv env(nullptr, fo);
    Status crashed = WriteTraceFile(path, b.trace, /*shard_id=*/0, &env);
    // A reader (fault-free) must see a COMPLETE file: version A or version B, nothing
    // in between — AppendFile validates the envelope, every CRC, and the footer.
    StreamTraceSet set;
    Result<uint32_t> shard = set.AppendFile(path);
    ASSERT_TRUE(shard.ok()) << "crash point " << k << ": " << shard.error();
    EXPECT_TRUE(set.num_events() == a.trace.events.size() ||
                set.num_events() == b.trace.events.size())
        << "crash point " << k << " exposed a partial spill (" << set.num_events()
        << " events)";
    if (crashed.ok()) {
      EXPECT_EQ(set.num_events(), b.trace.events.size()) << "crash point " << k;
    }
  }
}

TEST(FaultInjection, StateFileKillPointSweepNeverExposesPartialFile) {
  ServedWorkload a = ServeWorkload(CounterWorkload(10));
  ServedWorkload b = ServeWorkload(CounterWorkload(20));
  const std::string fp_a = InitialStateFingerprint(a.final_state);
  const std::string fp_b = InitialStateFingerprint(b.final_state);
  ASSERT_NE(fp_a, fp_b);
  const std::string path = ::testing::TempDir() + "/fi_kill_state.bin";

  FaultInjectingEnv counting(nullptr, FaultOptions{});
  ASSERT_TRUE(WriteInitialStateFile(path, b.final_state, &counting).ok());
  const uint64_t n_ops = counting.write_ops();
  ASSERT_GT(n_ops, 2u);

  for (uint64_t k = 0; k < n_ops; k++) {
    ASSERT_TRUE(WriteInitialStateFile(path, a.final_state).ok());
    FaultOptions fo;
    fo.crash_after_writes = k;
    FaultInjectingEnv env(nullptr, fo);
    (void)WriteInitialStateFile(path, b.final_state, &env);
    Result<InitialState> read = ReadInitialStateFile(path);
    ASSERT_TRUE(read.ok()) << "crash point " << k << ": " << read.error();
    const std::string fp = InitialStateFingerprint(read.value());
    EXPECT_TRUE(fp == fp_a || fp == fp_b) << "crash point " << k;
  }
}

// --- 3. Checkpointed resume: bit-identical to an uninterrupted audit ---

// Trace loader that simulates a process killed mid-pass-2: the first `allowed` payload
// loads succeed, then every load fails permanently. Tasks already paged in retire (and
// journal); the failing task surfaces a gate failure, i.e. an I/O error, never a verdict.
class KillSwitchLoader : public TraceChunkLoader {
 public:
  KillSwitchLoader(const StreamTraceSet* set, uint64_t allowed)
      : real_(set), allowed_(allowed) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    if (loads_.fetch_add(1) >= allowed_) {
      return Status::Error("io: injected mid-audit kill at payload load " +
                           std::to_string(allowed_) + " in " +
                           set.file_path(set.loc(index).file));
    }
    return real_.Load(set, index, event);
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    real_.Evict(set, index, event);
  }

 private:
  FileTraceChunkLoader real_;
  std::atomic<uint64_t> loads_{0};
  const uint64_t allowed_;
};

TEST(FaultInjection, ResumeAfterMidAuditKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_resume_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_resume_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  // Uninterrupted in-memory reference: the verdict every resumed run must reproduce.
  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&ref_session, trace_path, reports_path);
  ASSERT_TRUE(ref.ok()) << ref.error();
  ASSERT_TRUE(ref.value().accepted) << ref.value().reason;
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t budget : {size_t{64}, size_t{4096}, size_t{0}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      const std::string checkpoint = ::testing::TempDir() + "/fi_resume_" +
                                     std::to_string(threads) + "_" +
                                     std::to_string(budget) + ".ckpt";
      AuditOptions opts;
      opts.num_threads = threads;
      opts.max_group_size = 8;
      opts.max_resident_bytes = budget;
      opts.checkpoint_path = checkpoint;

      // Run 1: killed mid-pass-2 after 80 payload loads (~10 of 20 chunk tasks).
      StreamTraceSet probe;
      ASSERT_TRUE(probe.AppendFile(trace_path).ok());
      KillSwitchLoader killer(&probe, /*allowed=*/80);
      StreamAuditHooks hooks;
      hooks.loader = &killer;
      AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
      Result<AuditResult> killed =
          first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
      // The kill left the checkpoint behind for the resume.
      Result<bool> left = Env::Default()->FileExists(checkpoint);
      ASSERT_TRUE(left.ok() && left.value());

      // Run 2: clean resume over the same files and checkpoint.
      AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
      Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
      ASSERT_TRUE(got.ok()) << got.error();
      EXPECT_TRUE(got.value().accepted) << got.value().reason;
      EXPECT_EQ(got.value().reason, ref.value().reason);
      EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
      // The resume genuinely reused journaled chunks instead of re-executing them.
      EXPECT_GT(got.value().stats.checkpoint_chunks_reused, 0u);
      // A verdict spends the checkpoint.
      Result<bool> spent = Env::Default()->FileExists(checkpoint);
      EXPECT_TRUE(spent.ok() && !spent.value());
    }
  }
}

// Reports-side twin of KillSwitchLoader: the first `allowed` op-log content loads
// succeed, then every load fails permanently — which is how a process death lands inside
// Prepare, whose versioned-store builds page spilled op-log segments through this loader.
class KillSwitchReportsLoader : public ReportsChunkLoader {
 public:
  KillSwitchReportsLoader(const StreamReportsSet* set, uint64_t allowed)
      : real_(set), allowed_(allowed) {}

  Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
              uint64_t count) override {
    if (loads_.fetch_add(1) >= allowed_) {
      return Status::Error("io: injected mid-prepare kill at op-log load " +
                           std::to_string(allowed_));
    }
    return real_.Load(set, object, first_seqnum, count);
  }
  void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
             uint64_t count) override {
    real_.Evict(set, object, first_seqnum, count);
  }

 private:
  FileReportsChunkLoader real_;
  std::atomic<uint64_t> loads_{0};
  const uint64_t allowed_;
};

TEST(FaultInjection, ResumeAfterMidPrepareKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_prep_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_prep_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&ref_session, trace_path, reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted)
      << (ref.ok() ? ref.value().reason : ref.error());
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string checkpoint =
        ::testing::TempDir() + "/fi_prep_" + std::to_string(threads) + ".ckpt";
    AuditOptions opts;
    opts.num_threads = threads;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 4096;
    opts.checkpoint_path = checkpoint;

    // Run 1: killed mid-Prepare after 8 op-log segment loads — some per-object forward
    // scans have retired, the rest never ran.
    StreamReportsSet probe;
    ASSERT_TRUE(probe.AppendFile(reports_path).ok());
    KillSwitchReportsLoader killer(&probe, /*allowed=*/8);
    StreamAuditHooks hooks;
    hooks.reports_loader = &killer;
    AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> killed =
        first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());

    // Run 2: clean resume. The stores are in-memory, so Prepare re-scans every object,
    // and the verdict must be bit-identical to the uninterrupted reference.
    AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(got.value().reason, ref.value().reason);
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
    Result<bool> spent = Env::Default()->FileExists(checkpoint);
    EXPECT_TRUE(spent.ok() && !spent.value());
  }
}

TEST(FaultInjection, ResumeAfterMidCompareKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_cmp_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_cmp_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&ref_session, trace_path, reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted)
      << (ref.ok() ? ref.value().reason : ref.error());
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string checkpoint =
        ::testing::TempDir() + "/fi_cmp_" + std::to_string(threads) + ".ckpt";
    AuditOptions opts;
    opts.num_threads = threads;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 4096;
    opts.checkpoint_path = checkpoint;

    // Run 1: killed mid-pass-3. Pass 2 loads each of the 160 request payloads exactly
    // once; allowing 200 loads retires all of pass 2 (journaling every chunk) and dies
    // at the 40th response body of the compare pass — past the 32-response compare
    // watermark the journal recorded.
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(trace_path).ok());
    KillSwitchLoader killer(&probe, /*allowed=*/200);
    StreamAuditHooks hooks;
    hooks.loader = &killer;
    AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> killed =
        first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());

    // Run 2: clean resume — every pass-2 chunk replays from the journal, the compare
    // pass skips the responses below the watermark (sound: the fingerprint binds every
    // response payload's CRC, and a surviving journal means no verdict was reached, so
    // every compared response matched), and the verdict is bit-identical.
    AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(got.value().reason, ref.value().reason);
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
    EXPECT_GT(got.value().stats.checkpoint_chunks_reused, 0u);
    EXPECT_GT(got.value().stats.compare_records_resumed, 0u);
    Result<bool> spent = Env::Default()->FileExists(checkpoint);
    EXPECT_TRUE(spent.ok() && !spent.value());
  }
}

// Seeded-EIO sweep of the streamed pass 2 (2 workers, 2 KiB budget): injected read faults
// land on whichever worker's chunk preads draw them. The taxonomy must hold regardless —
// absorbable faults stay invisible, hard faults surface as I/O errors attributed to a
// file (never as tampering), and an accept still reproduces the true final state.
TEST(FaultInjection, SeededEioDuringStreamedPass2KeepsTheOutcomeTaxonomy) {
  const uint64_t base_seed = TestBaseSeed(0xFA10);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Workload w = CounterWorkload(64);
  ServedWorkload served = ServeWorkload(w);
  const std::string truth = InitialStateFingerprint(served.final_state);
  const std::string trace_path = ::testing::TempDir() + "/fi_eio_sweep_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_eio_sweep_reports.bin";
  // Spill once with the default env: every schedule below audits the same clean files.
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  constexpr int kSchedules = 90;
  int accepted = 0;
  int io_errors = 0;
  uint64_t faults_fired = 0;
  for (int s = 0; s < kSchedules; s++) {
    FaultOptions fo;
    fo.seed = base_seed + static_cast<uint64_t>(s);
    fo.p_read_transient = 0.02;
    fo.p_short_read = 0.10;
    const bool absorbable_only = (s % 3 == 0);
    if (!absorbable_only) {
      fo.p_read_error = 0.004;
    }
    FaultInjectingEnv env(nullptr, fo);

    AuditOptions opts;
    opts.num_threads = 2;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 2048;
    opts.io_env = &env;
    AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> r = session.FeedEpochFilesStreamed(trace_path, reports_path);
    faults_fired += env.faults_injected();
    switch (ClassifyAuditOutcome(r)) {
      case AuditOutcome::kAccepted:
        accepted++;
        EXPECT_EQ(InitialStateFingerprint(r.value().final_state), truth)
            << "schedule " << s;
        break;
      case AuditOutcome::kIoError: {
        EXPECT_FALSE(absorbable_only)
            << "schedule " << s << " surfaced an absorbable fault: " << r.error();
        io_errors++;
        ExpectLocatedReadFault(r.status(), trace_path, reports_path, s);
        // A failed audit consumes nothing: the epoch can be retried.
        EXPECT_EQ(session.epochs_fed(), 0u);
        break;
      }
      case AuditOutcome::kRejected:
        ADD_FAILURE() << "schedule " << s
                      << " misreported an injected I/O fault as tampering: "
                      << r.value().reason;
        break;
      case AuditOutcome::kConfigError:
        ADD_FAILURE() << "schedule " << s << " misclassified as config error: "
                      << r.error();
        break;
    }
  }
  EXPECT_GE(accepted, kSchedules / 3) << "absorbable-only schedules must all accept";
  EXPECT_GT(io_errors, 0);
  EXPECT_GT(faults_fired, 0u);
}

TEST(FaultInjection, StaleCheckpointFromDifferentEpochIsIgnored) {
  Workload w = CounterWorkload(60);
  ServedWorkload served = ServeWorkload(w);
  ServedWorkload other = ServeWorkload(CounterWorkload(40));
  const std::string trace_path = ::testing::TempDir() + "/fi_stale_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_stale_reports.bin";
  const std::string other_trace = ::testing::TempDir() + "/fi_stale_trace2.bin";
  const std::string other_reports = ::testing::TempDir() + "/fi_stale_reports2.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  ASSERT_TRUE(WriteTraceFile(other_trace, other.trace).ok());
  ASSERT_TRUE(WriteReportsFile(other_reports, other.reports).ok());
  const std::string checkpoint = ::testing::TempDir() + "/fi_stale.ckpt";

  AuditOptions opts;
  opts.num_threads = 2;
  opts.max_group_size = 8;
  opts.checkpoint_path = checkpoint;

  // Kill an audit of the OTHER epoch so its checkpoint survives at the same path.
  {
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(other_trace).ok());
    KillSwitchLoader killer(&probe, /*allowed=*/16);
    StreamAuditHooks hooks;
    hooks.loader = &killer;
    AuditSession session = AuditSession::Open(&w.app, opts, other.initial);
    Result<AuditResult> killed =
        session.FeedEpochFilesStreamed(other_trace, other_reports, &hooks);
    ASSERT_FALSE(killed.ok());
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());
  }

  // Auditing THIS epoch against the stale checkpoint must ignore it (fingerprint
  // mismatch): nothing reused, verdict identical to the ground truth.
  AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> got = session.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_EQ(got.value().stats.checkpoint_chunks_reused, 0u);
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(served.final_state));
}

// A verdict spends the checkpoint wherever it is reached: an accept and a reject found in
// Prepare, in pass 2 or in the pass-3 compare all remove the sidecar. (A killed run keeps
// it; StaleCheckpointFromDifferentEpochIsIgnored relies on that.)
TEST(FaultInjection, EveryVerdictSpendsTheCheckpoint) {
  Workload w = CounterWorkload(60);
  ServedWorkload served = ServeWorkload(w);
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/fi_spend_trace.bin";
  const std::string reports_path = dir + "/fi_spend_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  const RequestId victim = served.trace.events.front().rid;
  Trace forged_body = served.trace;
  ASSERT_TRUE(TamperResponseBody(&forged_body, victim, "forged"));
  const std::string forged_body_path = dir + "/fi_spend_forged_trace.bin";
  ASSERT_TRUE(WriteTraceFile(forged_body_path, forged_body).ok());
  Reports forged_count = served.reports;
  ASSERT_TRUE(TamperOpCount(&forged_count, victim, forged_count.op_counts[victim] + 2));
  const std::string forged_count_path = dir + "/fi_spend_forged_reports.bin";
  ASSERT_TRUE(WriteReportsFile(forged_count_path, forged_count).ok());

  struct Case {
    const char* name;
    std::string trace_path;
    std::string reports_path;
    uint64_t max_instructions;
    const char* reason_prefix;  // Empty: the epoch accepts.
  };
  const uint64_t kDefaultLimit = InterpreterOptions().max_instructions;
  const Case cases[] = {
      {"accept", trace_path, reports_path, kDefaultLimit, ""},
      {"prepare", trace_path, forged_count_path, kDefaultLimit, "CheckLogs:"},
      {"pass2", trace_path, reports_path, 20, "group re-exec:"},
      {"compare", forged_body_path, reports_path, kDefaultLimit, "output"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AuditOptions opts;
    opts.num_threads = 2;
    opts.max_group_size = 8;
    opts.interp.max_instructions = c.max_instructions;
    opts.checkpoint_path = dir + "/fi_spend_" + c.name + ".ckpt";
    AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> got = session.FeedEpochFilesStreamed(c.trace_path, c.reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    const std::string prefix = c.reason_prefix;
    EXPECT_EQ(got.value().accepted, prefix.empty()) << got.value().reason;
    EXPECT_EQ(got.value().reason.substr(0, prefix.size()), prefix) << got.value().reason;
    Result<bool> left = Env::Default()->FileExists(opts.checkpoint_path);
    ASSERT_TRUE(left.ok());
    EXPECT_FALSE(left.value()) << "the verdict left its checkpoint behind";
  }
}

// interp.max_instructions decides where a runaway re-execution traps and so which ops
// it issued: a journal written under one limit must not be replayed under another. The
// run resumed at a new limit reuses nothing and rejects exactly as an uninterrupted run
// at that limit does.
TEST(FaultInjection, CheckpointFromAnotherInstructionLimitIsIgnored) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_limit_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_limit_reports.bin";
  const std::string checkpoint = ::testing::TempDir() + "/fi_limit.ckpt";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions opts;
  opts.num_threads = 1;
  opts.max_group_size = 8;
  AuditOptions tight = opts;
  tight.interp.max_instructions = 20;

  AuditSession ref_session = AuditSession::Open(&w.app, tight, served.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&ref_session, trace_path, reports_path);
  ASSERT_TRUE(ref.ok()) << ref.error();
  ASSERT_FALSE(ref.value().accepted);

  // Run 1 at the default limit, killed mid-pass-2 after ~19 of 20 chunk tasks retired.
  opts.checkpoint_path = checkpoint;
  StreamTraceSet probe;
  ASSERT_TRUE(probe.AppendFile(trace_path).ok());
  KillSwitchLoader killer(&probe, /*allowed=*/150);
  StreamAuditHooks hooks;
  hooks.loader = &killer;
  AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> killed = first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
  ASSERT_FALSE(killed.ok());
  Result<bool> left = Env::Default()->FileExists(checkpoint);
  ASSERT_TRUE(left.ok() && left.value());

  // Run 2 resumes at the tight limit.
  tight.checkpoint_path = checkpoint;
  AuditSession resumed = AuditSession::Open(&w.app, tight, served.initial);
  Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().stats.checkpoint_chunks_reused, 0u);
  EXPECT_FALSE(got.value().accepted);
  EXPECT_EQ(got.value().reason, ref.value().reason);
}

// Rewrites a checkpoint journal into the layout earlier builds wrote: a bare-fingerprint
// meta record, five f64 phase timings after each chunk record's order, and one Prepare
// watermark record (kind 3). Returns the number of chunk records converted.
size_t RewriteJournalInPriorLayout(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string out = data.substr(0, wire::kEnvelopeHeaderBytes);
  size_t chunks = 0;
  for (size_t pos = wire::kEnvelopeHeaderBytes; pos < data.size();) {
    uint8_t type;
    uint64_t len;
    uint32_t crc;
    if (!wire::ParseRecordFrameV2(data.data() + pos, data.size() - pos, &type, &len,
                                  &crc)) {
      break;
    }
    std::string payload = data.substr(pos + wire::kRecordFrameBytesV2, len);
    pos += wire::kRecordFrameBytesV2 + len;
    if (type == 1) {
      payload.resize(8);  // Fingerprint only: no layout tag.
    } else if (type == 2) {
      std::string timings;
      for (int i = 0; i < 5; i++) {
        wire_primitives::PutF64(&timings, 0.25);
      }
      payload.insert(8, timings);
      chunks++;
    }
    wire::AppendRecordFrame(&out, type, payload);
  }
  std::string watermark;
  wire_primitives::PutU64(&watermark, 0);
  wire::AppendRecordFrame(&out, 3, watermark);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << out;
  return chunks;
}

TEST(FaultInjection, PriorLayoutCheckpointIsDiscardedWholesale) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_layout_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/fi_layout_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  const std::string checkpoint = ::testing::TempDir() + "/fi_layout.ckpt";

  AuditOptions opts;
  opts.num_threads = 1;
  opts.max_group_size = 8;
  opts.checkpoint_path = checkpoint;

  // Run 1 dies after pass 2 journaled every chunk and pass 3 journaled a watermark.
  {
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(trace_path).ok());
    KillSwitchLoader killer(&probe, /*allowed=*/200);
    StreamAuditHooks hooks;
    hooks.loader = &killer;
    AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> killed =
        first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    ASSERT_FALSE(killed.ok());
  }
  ASSERT_GT(RewriteJournalInPriorLayout(checkpoint), 0u);

  // The same epoch, fingerprint and all, but the journal's layout predates the tag: it
  // contributes nothing, and the audit restarts fresh to the ground-truth verdict.
  AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_EQ(got.value().stats.checkpoint_chunks_reused, 0u);
  EXPECT_EQ(got.value().stats.compare_records_resumed, 0u);
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(served.final_state));
}

// --- Error propagation out of the server-side spill paths (satellite coverage) ---

TEST(FaultInjection, FlushAndExportPropagateWriteFailuresAndKeepData) {
  Workload w = CounterWorkload(12);
  ServedWorkload served = ServeWorkload(w);

  FaultOptions fo;
  fo.p_append_error = 1.0;  // Every append fails (ENOSPC from the first byte).
  FaultInjectingEnv env(nullptr, fo);

  Collector collector(/*shard_id=*/3, &env);
  for (const TraceEvent& e : served.trace.events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      collector.RecordRequest(e.rid, e.script, e.params);
    } else {
      collector.RecordResponse(e.rid, e.body);
    }
  }
  const std::string trace_path = ::testing::TempDir() + "/fi_flush_trace.bin";
  Status flush = collector.Flush(trace_path);
  EXPECT_FALSE(flush.ok());
  // The failed flush loses no recorded traffic: the trace is still there to retry.
  EXPECT_EQ(collector.TakeTrace().events.size(), served.trace.events.size());

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true, .io_env = &env});
  const std::string reports_path = ::testing::TempDir() + "/fi_export_reports.bin";
  EXPECT_FALSE(core.ExportReports(reports_path).ok());

  EXPECT_FALSE(
      WriteInitialStateFile(::testing::TempDir() + "/fi_state.bin", served.initial, &env)
          .ok());
}

// A CRC error in a spill file is located by the error itself, not by parsing its text:
// the full path at the corrupt record's offset, classified kIoError on both feeds — even
// when the directory name contains " in " or names a config knob.
TEST(FaultInjection, CorruptRecordIsLocatedByPathAndOffsetOnBothFeeds) {
  Workload w = CounterWorkload(12);
  ServedWorkload served = ServeWorkload(w);
  for (const std::string dir_name : {"spool in transit", "OROCHI_AUDIT_BUDGET-spool"}) {
    SCOPED_TRACE(dir_name);
    const std::string dir = ::testing::TempDir() + "/fi_probe/" + dir_name;
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    const std::string trace_path = dir + "/epoch.trace";
    const std::string reports_path = dir + "/epoch.reports";
    ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
    ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
    // The first record's frame starts right after the 13-byte envelope header; flip a
    // byte of its payload so its CRC fails.
    {
      std::fstream f(trace_path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(wire::kEnvelopeHeaderBytes + wire::kRecordFrameBytesV2 + 2);
      char c = 0;
      f.read(&c, 1);
      f.seekp(wire::kEnvelopeHeaderBytes + wire::kRecordFrameBytesV2 + 2);
      c = static_cast<char>(c ^ 0x5A);
      f.write(&c, 1);
    }
    for (bool streamed : {false, true}) {
      AuditSession session = AuditSession::Open(&w.app, AuditOptions(), served.initial);
      Result<AuditResult> r = streamed
                                  ? session.FeedEpochFilesStreamed(trace_path, reports_path)
                                  : FeedDecodedFiles(&session, trace_path, reports_path);
      ASSERT_FALSE(r.ok()) << (streamed ? "streamed" : "in-memory");
      EXPECT_NE(r.error().find("crc mismatch"), std::string::npos) << r.error();
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.error();
      EXPECT_EQ(r.status().file(), trace_path) << r.error();
      EXPECT_EQ(r.status().offset(), 13u) << r.error();
      EXPECT_EQ(ClassifyAuditOutcome(r), AuditOutcome::kIoError) << r.error();
    }
  }
}

// Pass 1 reads an epoch's trace file and reports file as separate tasks on the pool, so
// with both files corrupt either may fail first. The trace file's error still wins, on
// both file feeds and at every worker count, located exactly as when it fails alone.
TEST(FaultInjection, CorruptTraceOutranksCorruptReportsInPass1) {
  Workload w = CounterWorkload(12);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/fi_both_corrupt.trace";
  const std::string reports_path = ::testing::TempDir() + "/fi_both_corrupt.reports";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  // Flip a byte in each file's first record payload, so both CRCs fail.
  const uint64_t flip_at = wire::kEnvelopeHeaderBytes + wire::kRecordFrameBytesV2 + 2;
  for (const std::string& path : {trace_path, reports_path}) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(flip_at));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(flip_at));
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  {
    StreamReportsSet reports_alone;
    Status st = reports_alone.AppendFile(reports_path);
    ASSERT_EQ(st.code(), StatusCode::kCorruption) << st.error();
    ASSERT_EQ(st.file(), reports_path);
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool sharded : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + (sharded ? " sharded" : ""));
      AuditOptions options;
      options.num_threads = threads;
      AuditSession session = AuditSession::Open(&w.app, options, served.initial);
      Result<AuditResult> r =
          sharded ? session.FeedShardedEpoch(
                        std::vector<ShardEpochFiles>{{trace_path, reports_path}})
                  : session.FeedEpochFilesStreamed(trace_path, reports_path);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.error();
      EXPECT_EQ(r.status().file(), trace_path) << r.error();
      EXPECT_EQ(r.status().offset(), wire::kEnvelopeHeaderBytes) << r.error();
      EXPECT_EQ(ClassifyAuditOutcome(r), AuditOutcome::kIoError) << r.error();
      EXPECT_EQ(session.epochs_fed(), 0u);
    }
  }
}

// Classification is a switch on the code: message text (a "config: " prefix, a knob
// name) plays no part.
TEST(FaultInjection, OutcomeTaxonomyFollowsTheCode) {
  Result<AuditResult> config = Status::Error(
      StatusCode::kConfig, "config: OROCHI_AUDIT_THREADS='x' is not a valid thread count");
  EXPECT_EQ(ClassifyAuditOutcome(config), AuditOutcome::kConfigError);
  Result<AuditResult> io = Result<AuditResult>::Error(
      "config: io: unexpected end of file at offset 9 in /tmp/OROCHI_AUDIT_THREADS/t.bin");
  EXPECT_EQ(ClassifyAuditOutcome(io), AuditOutcome::kIoError);
  AuditResult rejected;
  rejected.reason = "output: rid 4 response does not match re-execution";
  EXPECT_EQ(ClassifyAuditOutcome(Result<AuditResult>(rejected)), AuditOutcome::kRejected);
}

// Wrapping an error in context keeps what callers branch on: a transient read error under
// the shard merge's "shard merge: " prefix is still transient and still located.
TEST(FaultInjection, ShardMergePrefixKeepsTheTransientCode) {
  ServedWorkload served = ServeWorkload(CounterWorkload(8));
  const std::string trace_path = ::testing::TempDir() + "/fi_merge_prefix.trace";
  const std::string reports_path = ::testing::TempDir() + "/fi_merge_prefix.reports";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace, /*shard_id=*/1).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  FaultOptions fo;
  fo.p_read_transient = 1.0;  // Every attempt fails: the retries run out.
  FaultInjectingEnv env(nullptr, fo);
  Result<MergedShards> merged =
      MergeShards({{trace_path, reports_path}}, {}, &env, /*num_threads=*/1);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().rfind("shard merge: ", 0), 0u) << merged.error();
  EXPECT_EQ(merged.status().code(), StatusCode::kTransient) << merged.error();
  EXPECT_EQ(merged.status().file(), trace_path);
  EXPECT_EQ(merged.status().offset(), 0u);
}

}  // namespace
}  // namespace orochi

// Epoch-chained AuditSession semantics: accepted epochs seed the next epoch's initial
// state exactly as §4.5's steady state prescribes, a rejected epoch leaves the session
// state untouched, the chain's result is bit-identical to one monolithic audit over the
// concatenated epochs, and rejection of a tampered epoch is deterministic across worker
// thread counts — the session inherits the parallel audit's determinism guarantee. Each
// result's phase breakdown belongs to its own epoch, even with other sessions auditing
// concurrently.
#include "src/core/audit_session.h"

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/audit_plan.h"
#include "src/objects/wire_format.h"
#include "src/server/tamper.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

constexpr int kEpochs = 3;

struct Epoch {
  Trace trace;
  Reports reports;
};

struct EpochRun {
  InitialState initial;
  std::vector<Epoch> epochs;
};

Workload SmallCounterWorkload(size_t n) {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(i % 3);
    item.params["who"] = "w" + std::to_string(i % 5);
    w.items.push_back(std::move(item));
  }
  return w;
}

// Serves the workload on one long-lived server, closing an epoch (TakeTrace/TakeReports)
// every items.size()/kEpochs requests — the continuous-collector, periodic-audit split.
EpochRun ServeInEpochs(const Workload& w) {
  EpochRun run;
  run.initial = w.initial;
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  RequestId rid = 1;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    size_t begin = w.items.size() * static_cast<size_t>(epoch) / kEpochs;
    size_t end = w.items.size() * static_cast<size_t>(epoch + 1) / kEpochs;
    {
      ThreadServer server(&core, &collector, /*num_workers=*/4);
      for (size_t i = begin; i < end; i++) {
        server.Submit(rid++, w.items[i].script, w.items[i].params);
      }
      server.Drain();
    }
    run.epochs.push_back({collector.TakeTrace(), core.TakeReports()});
  }
  return run;
}

AuditOptions SessionOptions(size_t threads) {
  AuditOptions options;
  options.num_threads = threads;
  // Small chunks force several tasks per group so multi-thread runs genuinely interleave.
  options.max_group_size = 64;
  return options;
}

// One monolithic audit over the concatenation of epochs [0, upto).
AuditResult ConcatenatedAudit(const Workload& w, const EpochRun& run, size_t upto) {
  Trace all_trace;
  Reports all_reports;
  for (size_t i = 0; i < upto; i++) {
    all_trace.events.insert(all_trace.events.end(), run.epochs[i].trace.events.begin(),
                            run.epochs[i].trace.events.end());
    EXPECT_TRUE(AppendReports(&all_reports, run.epochs[i].reports).ok());
  }
  Auditor auditor(&w.app, SessionOptions(1));
  return auditor.Audit(all_trace, all_reports, run.initial);
}

TEST(AuditSession, ThreeEpochChainMatchesConcatenatedAuditAtEveryPrefix) {
  Workload w = SmallCounterWorkload(150);
  EpochRun run = ServeInEpochs(w);
  ASSERT_EQ(run.epochs.size(), static_cast<size_t>(kEpochs));

  AuditSession session = AuditSession::Open(&w.app, SessionOptions(1), run.initial);
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    AuditResult r = session.FeedEpoch(run.epochs[static_cast<size_t>(epoch)].trace,
                                      run.epochs[static_cast<size_t>(epoch)].reports);
    ASSERT_TRUE(r.accepted) << "epoch " << epoch + 1 << ": " << r.reason;
    // The chained state after N epochs must equal what one audit over the concatenated
    // prefix computes — the steady-state handoff is exact, not approximate.
    AuditResult combined = ConcatenatedAudit(w, run, static_cast<size_t>(epoch) + 1);
    ASSERT_TRUE(combined.accepted) << combined.reason;
    EXPECT_EQ(InitialStateFingerprint(session.state()),
              InitialStateFingerprint(combined.final_state))
        << "prefix of " << epoch + 1 << " epochs";
    EXPECT_EQ(InitialStateFingerprint(r.final_state),
              InitialStateFingerprint(combined.final_state));
  }
  EXPECT_EQ(session.epochs_fed(), static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(session.epochs_accepted(), static_cast<uint64_t>(kEpochs));
}

TEST(AuditSession, TamperedEpochRejectsDeterministicallyAcrossThreadCounts) {
  Workload w = SmallCounterWorkload(150);
  EpochRun run = ServeInEpochs(w);

  Epoch tampered = run.epochs[1];
  RequestId victim = 0;
  for (const TraceEvent& e : tampered.trace.events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      victim = e.rid;
      break;
    }
  }
  ASSERT_TRUE(TamperResponseBody(&tampered.trace, victim, "forged"));

  std::string base_reason;
  std::string base_final_fp;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditSession session = AuditSession::Open(&w.app, SessionOptions(threads), run.initial);
    AuditResult r1 = session.FeedEpoch(run.epochs[0].trace, run.epochs[0].reports);
    ASSERT_TRUE(r1.accepted) << r1.reason;
    std::string after_epoch1 = InitialStateFingerprint(session.state());

    AuditResult r2bad = session.FeedEpoch(tampered.trace, tampered.reports);
    EXPECT_FALSE(r2bad.accepted) << threads << " threads";
    // A rejected epoch must not advance the chain.
    EXPECT_EQ(InitialStateFingerprint(session.state()), after_epoch1);
    EXPECT_EQ(session.epochs_accepted(), 1u);

    // The pristine copy of the same epoch audits against the unchanged state; the chain
    // then completes normally.
    AuditResult r2 = session.FeedEpoch(run.epochs[1].trace, run.epochs[1].reports);
    ASSERT_TRUE(r2.accepted) << r2.reason;
    AuditResult r3 = session.FeedEpoch(run.epochs[2].trace, run.epochs[2].reports);
    ASSERT_TRUE(r3.accepted) << r3.reason;

    if (threads == 1) {
      base_reason = r2bad.reason;
      base_final_fp = InitialStateFingerprint(session.state());
      EXPECT_FALSE(base_reason.empty());
    } else {
      EXPECT_EQ(r2bad.reason, base_reason) << threads << " threads";
      EXPECT_EQ(InitialStateFingerprint(session.state()), base_final_fp)
          << threads << " threads";
    }
  }
}

TEST(AuditSession, FileRoundTripMatchesInMemoryChain) {
  Workload w = SmallCounterWorkload(90);
  EpochRun run = ServeInEpochs(w);

  // In-memory chain as the reference.
  AuditSession reference = AuditSession::Open(&w.app, SessionOptions(2), run.initial);
  for (const Epoch& e : run.epochs) {
    ASSERT_TRUE(reference.FeedEpoch(e.trace, e.reports).accepted);
  }

  // Spill everything, then audit the files in a session opened from the state file.
  std::string dir = ::testing::TempDir();
  std::string state_path = dir + "/session_state0.bin";
  ASSERT_TRUE(WriteInitialStateFile(state_path, run.initial).ok());
  Result<AuditSession> opened =
      AuditSession::OpenFromStateFile(&w.app, SessionOptions(2), state_path);
  ASSERT_TRUE(opened.ok()) << opened.error();
  AuditSession session = std::move(opened).value();
  for (size_t i = 0; i < run.epochs.size(); i++) {
    std::string trace_path = dir + "/session_trace_" + std::to_string(i) + ".bin";
    std::string reports_path = dir + "/session_reports_" + std::to_string(i) + ".bin";
    ASSERT_TRUE(WriteTraceFile(trace_path, run.epochs[i].trace).ok());
    ASSERT_TRUE(WriteReportsFile(reports_path, run.epochs[i].reports).ok());
    Result<AuditResult> r = FeedDecodedFiles(&session, trace_path, reports_path);
    ASSERT_TRUE(r.ok()) << r.error();
    ASSERT_TRUE(r.value().accepted) << r.value().reason;
  }
  EXPECT_EQ(InitialStateFingerprint(session.state()),
            InitialStateFingerprint(reference.state()));

  // SaveState → reload resumes the chain with the identical state.
  std::string end_state_path = dir + "/session_state_end.bin";
  ASSERT_TRUE(session.SaveState(end_state_path).ok());
  Result<InitialState> reloaded = ReadInitialStateFile(end_state_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  EXPECT_EQ(InitialStateFingerprint(reloaded.value()),
            InitialStateFingerprint(session.state()));
}

TEST(AuditSession, FileFeedReportsFileErrorsDistinctFromRejection) {
  Workload w = SmallCounterWorkload(30);
  EpochRun run = ServeInEpochs(w);
  AuditSession session = AuditSession::Open(&w.app, SessionOptions(1), run.initial);
  Result<AuditResult> r =
      session.FeedEpochFilesStreamed(::testing::TempDir() + "/no_such_trace.bin",
                                     ::testing::TempDir() + "/no_such_reports.bin");
  EXPECT_FALSE(r.ok());
  // A file error consumes no epoch.
  EXPECT_EQ(session.epochs_fed(), 0u);
}

TEST(AuditSession, AuditorAuditIsAOneEpochSession) {
  Workload w = SmallCounterWorkload(60);
  ServedWorkload served = ServeWorkload(w);
  Auditor auditor(&w.app, SessionOptions(2));
  AuditResult via_auditor = auditor.Audit(served.trace, served.reports, served.initial);
  AuditSession session = AuditSession::Open(&w.app, SessionOptions(2), served.initial);
  AuditResult via_session = session.FeedEpoch(served.trace, served.reports);
  ASSERT_TRUE(via_auditor.accepted) << via_auditor.reason;
  ASSERT_TRUE(via_session.accepted) << via_session.reason;
  EXPECT_EQ(InitialStateFingerprint(via_auditor.final_state),
            InitialStateFingerprint(via_session.final_state));
}

// The chunk tasks FeedEpoch will execute for this epoch: what its pass2_execute span
// count must equal.
size_t PlannedChunks(const Workload& w, const ServedWorkload& served,
                     const AuditOptions& options) {
  AuditContext ctx(&served.trace, &served.reports, &w.app, &served.initial, options);
  EXPECT_TRUE(ctx.Prepare().ok());
  return PlanAuditTasks(&ctx, served.reports, &w.app, options).tasks.size();
}

// Prepare's db_redo span count: the store task and one parse task per DB log segment.
size_t PlannedRedoSpans(const ServedWorkload& served) {
  const int db = served.reports.FindObject(ObjectKind::kDb, "");
  const size_t segments =
      db < 0 ? 0
             : ResidentOpLogScanner(&served.reports).Segments(static_cast<size_t>(db)).size();
  return segments + 1;
}

TEST(AuditSession, ConcurrentSessionsKeepTheirOwnPhaseBreakdown) {
  // Two different epochs, audited at the same time by two sessions that both mirror into
  // the process-wide tracer: neither result may count the other's spans.
  const Workload small = SmallCounterWorkload(150);
  const Workload large = SmallCounterWorkload(600);
  const ServedWorkload small_served = ServeWorkload(small);
  const ServedWorkload large_served = ServeWorkload(large);
  const AuditOptions options = SessionOptions(2);
  const size_t small_chunks = PlannedChunks(small, small_served, options);
  const size_t large_chunks = PlannedChunks(large, large_served, options);
  ASSERT_NE(small_chunks, large_chunks);

  constexpr int kRounds = 6;
  std::atomic<int> ready{0};
  auto audit = [&](const Workload& w, const ServedWorkload& served,
                   std::vector<AuditResult>* results) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kRounds; i++) {
      AuditSession session = AuditSession::Open(&w.app, options, served.initial);
      results->push_back(session.FeedEpoch(served.trace, served.reports));
    }
  };
  std::vector<AuditResult> small_results;
  std::vector<AuditResult> large_results;
  std::thread a(audit, std::cref(small), std::cref(small_served), &small_results);
  std::thread b(audit, std::cref(large), std::cref(large_served), &large_results);
  a.join();
  b.join();

  auto spans = [](const AuditResult& r, obs::Phase p) {
    return r.stats.phases.spans[static_cast<int>(p)];
  };
  for (const auto& [results, chunks, redo_spans] :
       {std::make_tuple(&small_results, small_chunks, PlannedRedoSpans(small_served)),
        std::make_tuple(&large_results, large_chunks, PlannedRedoSpans(large_served))}) {
    ASSERT_EQ(results->size(), static_cast<size_t>(kRounds));
    for (const AuditResult& r : *results) {
      ASSERT_TRUE(r.accepted) << r.reason;
      EXPECT_EQ(spans(r, obs::Phase::kPass2Execute), chunks);
      EXPECT_EQ(spans(r, obs::Phase::kProcOpReports), 1u);
      EXPECT_EQ(spans(r, obs::Phase::kDbRedo), redo_spans);
      // One output-check span per re-executed chunk, plus the final verdict scan.
      EXPECT_EQ(spans(r, obs::Phase::kCompare), chunks + 1);
      EXPECT_EQ(spans(r, obs::Phase::kDbQuery), r.stats.db_selects_issued);
    }
  }
}

}  // namespace
}  // namespace orochi

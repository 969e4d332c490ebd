// Soundness: every class of executor misbehaviour must flip the verdict to REJECT. The
// parameterized gauntlet mirrors the threat analysis of paper §3.4 plus OROCHI's report
// types (§4.6), and the Figure 4 scenarios are reconstructed exactly.
#include <gtest/gtest.h>

#include <functional>

#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/server/manual_executor.h"
#include "src/server/tamper.h"
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
    item.params["key"] = "k" + std::to_string(i % 2);
    item.params["who"] = "w" + std::to_string(i % 3);
    w.items.push_back(std::move(item));
  }
  return w;
}

struct TamperCase {
  const char* name;
  std::function<bool(Trace*, Reports*)> apply;
  // Groupings are an acceleration hint the sequential baseline never reads; tampers that
  // touch only the groupings report are invisible (and harmless) to it.
  bool group_only = false;
};

class SoundnessGauntlet : public ::testing::TestWithParam<TamperCase> {};

TEST_P(SoundnessGauntlet, TamperIsRejected) {
  Workload w = CounterWorkload(30);
  ServedWorkload served = ServeWorkload(w);
  Auditor auditor(&w.app);
  ASSERT_TRUE(auditor.Audit(served.trace, served.reports, served.initial).accepted);

  ASSERT_TRUE(GetParam().apply(&served.trace, &served.reports))
      << "tamper not applicable — adjust the workload";
  AuditResult result = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_FALSE(result.accepted) << "missed attack: " << GetParam().name;

  // The sequential baseline audit must catch everything except grouping-only tampers
  // (it never consults the groupings report).
  AuditResult seq = auditor.AuditSequential(served.trace, served.reports, served.initial);
  if (GetParam().group_only) {
    EXPECT_TRUE(seq.accepted) << seq.reason;
  } else {
    EXPECT_FALSE(seq.accepted) << "baseline missed attack: " << GetParam().name;
  }
}

int KvObj(const Reports& r) { return r.FindObject(ObjectKind::kKv, ""); }

// The gauntlet's epoch is served on 4 workers, so its history varies from run to run. A
// tamper that an honest interleaving could have produced is rightly accepted, so the two
// reordering tampers pick targets whose swap is observable in every interleaving.

// Swaps rid 1's response body with the first other response whose body differs: one of
// the two then disagrees with its re-execution. (Two concurrent hits on one key can
// legitimately return the same body, and swapping those changes nothing.)
bool SwapObservableResponses(Trace* t, Reports*) {
  const std::string* first = nullptr;
  for (const TraceEvent& e : t->events) {
    if (e.kind == TraceEvent::Kind::kResponse && e.rid == 1) {
      first = &e.body;
    }
  }
  for (const TraceEvent& e : t->events) {
    if (first != nullptr && e.kind == TraceEvent::Kind::kResponse && e.rid != 1 &&
        e.body != *first) {
      return SwapResponseBodies(t, 1, e.rid);
    }
  }
  return false;
}

// Swaps the first log entry that has a later entry of the same request with that later
// entry, which puts the request's own ops out of program order. (Entries of different
// requests may commute: two concurrent reads of one key swap unobservably.)
bool SwapOneRequestsLogEntries(Reports* r, size_t object) {
  const auto& log = r->op_logs[object];
  for (size_t i = 0; i < log.size(); i++) {
    for (size_t j = i + 1; j < log.size(); j++) {
      if (log[j].rid == log[i].rid) {
        return SwapLogEntries(r, object, i, j);
      }
    }
  }
  return false;
}
int DbObj(const Reports& r) { return r.FindObject(ObjectKind::kDb, ""); }

INSTANTIATE_TEST_SUITE_P(
    Tampers, SoundnessGauntlet,
    ::testing::Values(
        TamperCase{"forged response",
                   [](Trace* t, Reports*) {
                     return TamperResponseBody(t, 2, "<html><body>lies</body></html>");
                   }},
        TamperCase{"swapped responses", SwapObservableResponses},
        TamperCase{"kv log reordered",
                   [](Trace*, Reports* r) {
                     int kv = KvObj(*r);
                     return kv >= 0 && SwapOneRequestsLogEntries(r, static_cast<size_t>(kv));
                   }},
        TamperCase{"kv log entry dropped",
                   [](Trace*, Reports* r) {
                     int kv = KvObj(*r);
                     return kv >= 0 && DropLogEntry(r, static_cast<size_t>(kv), 1);
                   }},
        TamperCase{"db log entry dropped",
                   [](Trace*, Reports* r) {
                     int db = DbObj(*r);
                     return db >= 0 && DropLogEntry(r, static_cast<size_t>(db), 0);
                   }},
        TamperCase{"spurious op inserted",
                   [](Trace*, Reports* r) {
                     int kv = KvObj(*r);
                     // A second op for a request that issued M ops already.
                     return kv >= 0 && InsertSpuriousOp(r, static_cast<size_t>(kv), 0, 1, 99);
                   }},
        TamperCase{"kv write value forged",
                   [](Trace*, Reports* r) {
                     int kv = KvObj(*r);
                     if (kv < 0) {
                       return false;
                     }
                     auto& log = r->op_logs[static_cast<size_t>(kv)];
                     for (size_t i = 0; i < log.size(); i++) {
                       if (log[i].type == StateOpType::kKvSet) {
                         return TamperLogContents(
                             r, static_cast<size_t>(kv), i,
                             MakeKvSetContents("count:k0", Value::Int(424242)));
                       }
                     }
                     return false;
                   }},
        TamperCase{"db statement forged",
                   [](Trace*, Reports* r) {
                     int db = DbObj(*r);
                     return db >= 0 &&
                            TamperLogContents(
                                r, static_cast<size_t>(db), 0,
                                MakeDbContents({"DELETE FROM hits"}, false, true));
                   }},
        TamperCase{"db success flag flipped to failure",
                   [](Trace*, Reports* r) {
                     int db = DbObj(*r);
                     if (db < 0) {
                       return false;
                     }
                     const OpRecord& op = r->op_logs[static_cast<size_t>(db)][0];
                     Result<DbContents> dc = ParseDbContents(op.contents);
                     if (!dc.ok()) {
                       return false;
                     }
                     return TamperLogContents(
                         r, static_cast<size_t>(db), 0,
                         MakeDbContents(dc.value().sql, dc.value().is_txn, false));
                   }},
        TamperCase{"op count understated",
                   [](Trace*, Reports* r) {
                     for (auto& [rid, m] : r->op_counts) {
                       if (m > 1) {
                         return TamperOpCount(r, rid, m - 1);
                       }
                     }
                     return false;
                   }},
        TamperCase{"op count overstated",
                   [](Trace*, Reports* r) {
                     for (auto& [rid, m] : r->op_counts) {
                       if (m > 0) {
                         return TamperOpCount(r, rid, m + 1);
                       }
                     }
                     return false;
                   }},
        TamperCase{"request moved to wrong group",
                   [](Trace*, Reports* r) {
                     if (r->groups.size() < 2) {
                       return false;
                     }
                     auto first = r->groups.begin();
                     auto second = std::next(first);
                     return MoveRequestToGroup(r, first->second[0], second->first);
                   },
                   /*group_only=*/true},
        TamperCase{"request hidden from groupings",
                   [](Trace*, Reports* r) {
                     // Move to a fresh bogus group tag would still re-execute; instead
                     // erase the rid from every group (incomplete map, §3.1).
                     for (auto& [tag, rids] : r->groups) {
                       (void)tag;
                       if (!rids.empty()) {
                         rids.erase(rids.begin());
                         return true;
                       }
                     }
                     return false;
                   },
                   /*group_only=*/true},
        TamperCase{"group names untraced rid",
                   [](Trace*, Reports* r) {
                     r->groups.begin()->second.push_back(424242);
                     return true;
                   },
                   /*group_only=*/true}),
    [](const ::testing::TestParamInfo<TamperCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// --- The redo pass's own checks on the db log ---
//
// Each forged entry must REJECT during redo, with the same reason in memory and streamed
// from spill files (where the redo reads entry contents segment by segment).

void ExpectRedoRejects(const std::function<std::string(const std::string& sql)>& forge,
                       const std::string& reason_part, const std::string& label) {
  Workload w = CounterWorkload(12);
  ServedWorkload served = ServeWorkload(w);
  int db = DbObj(served.reports);
  ASSERT_GE(db, 0);
  const OpRecord& op = served.reports.op_logs[static_cast<size_t>(db)][0];
  Result<DbContents> dc = ParseDbContents(op.contents);
  ASSERT_TRUE(dc.ok() && dc.value().sql.size() == 1 && dc.value().success);
  ASSERT_TRUE(TamperLogContents(&served.reports, static_cast<size_t>(db), 0,
                                forge(dc.value().sql[0])));

  AuditSession in_memory = AuditSession::Open(&w.app, AuditOptions{}, served.initial);
  AuditResult mem = in_memory.FeedEpoch(served.trace, served.reports);
  ASSERT_FALSE(mem.accepted);
  EXPECT_NE(mem.reason.find("db log entry 1 " + reason_part), std::string::npos) << mem.reason;

  const std::string trace_path = ::testing::TempDir() + "/redo_" + label + "_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/redo_" + label + "_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  AuditOptions budgeted;
  budgeted.max_resident_bytes = 4096;
  AuditSession streamed = AuditSession::Open(&w.app, budgeted, served.initial);
  Result<AuditResult> got = streamed.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_FALSE(got.value().accepted);
  EXPECT_EQ(got.value().reason, mem.reason);
}

TEST(RedoChecks, SuccessClaimWithUnparsableSqlRejected) {
  ExpectRedoRejects(
      [](const std::string&) { return MakeDbContents({"INSRT INTO hits"}, false, true); },
      "claims success but statement 1 does not parse", "unparsable");
}

TEST(RedoChecks, FailureClaimThatSucceedsOnReplayRejected) {
  ExpectRedoRejects(
      [](const std::string& sql) { return MakeDbContents({sql}, false, false); },
      "claims failure but the statement succeeds on replay", "false_failure");
}

// --- Figure 4, reconstructed exactly with scripted interleavings ---

Application FigureFourApp() {
  Application app;
  Status f = app.AddScript("/f", "reg_write(\"A\", 1); $x = reg_read(\"B\"); echo intval($x);");
  Status g = app.AddScript("/g", "reg_write(\"B\", 1); $y = reg_read(\"A\"); echo intval($y);");
  EXPECT_TRUE(f.ok() && g.ok());
  return app;
}

struct FigureFourRun {
  Trace trace;
  Reports reports;
};

FigureFourRun RunConcurrentWritesFirst(const Application& app) {
  InitialState init;
  ServerCore core(&app, init);
  Collector collector;
  ManualExecutor exec(&app, &core, &collector);
  exec.Begin(1, "/f", {});
  exec.Begin(2, "/g", {});
  exec.Step(1);
  exec.Step(2);
  exec.Step(1);
  exec.Step(2);
  exec.Finish(1);
  exec.Finish(2);
  return {collector.TakeTrace(), core.TakeReports()};
}

TEST(FigureFour, ScenarioA_SequentialWithForgedOrder_Rejected) {
  Application app = FigureFourApp();
  InitialState init;
  ServerCore core(&app, init);
  Collector collector;
  ManualExecutor exec(&app, &core, &collector);
  exec.RunToCompletion(1, "/f", {});
  exec.RunToCompletion(2, "/g", {});
  Trace trace = collector.TakeTrace();
  Reports reports = core.TakeReports();
  // Forge responses (1, 0) and reorder OL_B to "justify" them.
  TamperResponseBody(&trace, 1, "1");
  TamperResponseBody(&trace, 2, "0");
  for (size_t obj = 0; obj < reports.objects.size(); obj++) {
    if (reports.objects[obj].kind == ObjectKind::kRegister && reports.objects[obj].name == "B") {
      SwapLogEntries(&reports, obj, 0, 1);
    }
  }
  Auditor auditor(&app);
  EXPECT_FALSE(auditor.Audit(trace, reports, init).accepted);
}

TEST(FigureFour, ScenarioB_ImpossibleZeroZero_Rejected) {
  Application app = FigureFourApp();
  InitialState init;
  FigureFourRun run = RunConcurrentWritesFirst(app);
  TamperResponseBody(&run.trace, 1, "0");
  TamperResponseBody(&run.trace, 2, "0");
  for (size_t obj = 0; obj < run.reports.objects.size(); obj++) {
    if (run.reports.objects[obj].kind == ObjectKind::kRegister) {
      SwapLogEntries(&run.reports, obj, 0, 1);
    }
  }
  Auditor auditor(&app);
  EXPECT_FALSE(auditor.Audit(run.trace, run.reports, init).accepted);
}

TEST(FigureFour, ScenarioC_LegalOneOne_Accepted) {
  Application app = FigureFourApp();
  InitialState init;
  FigureFourRun run = RunConcurrentWritesFirst(app);
  Auditor auditor(&app);
  AuditResult r = auditor.Audit(run.trace, run.reports, init);
  EXPECT_TRUE(r.accepted) << r.reason;
}

// --- Nondeterminism report validation (§4.6) ---

Workload NondetWorkload() {
  Workload w;
  w.name = "nd";
  Status st = w.app.AddScript("/nd", R"WS(
$t1 = time();
$t2 = time();
$r = rand(10, 20);
echo $t1 . "," . $t2 . "," . $r;
)WS");
  EXPECT_TRUE(st.ok());
  for (int i = 0; i < 4; i++) {
    w.items.push_back({"/nd", {}});
  }
  return w;
}

TEST(NondetValidation, HonestRunAccepted) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(r.accepted) << r.reason;
}

TEST(NondetValidation, TimeRewindRejected) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  // Second time() in some request goes backwards.
  for (auto& [rid, records] : served.reports.nondet) {
    (void)rid;
    ASSERT_GE(records.size(), 2u);
    records[1].value = Value::Int(1).Serialize();
    break;
  }
  // Keep the trace consistent with the tampered report? No — a consistent executor could
  // not have produced a rewinding clock, so the audit must reject regardless of outputs.
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

TEST(NondetValidation, RandOutOfRangeRejected) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  for (auto& [rid, records] : served.reports.nondet) {
    (void)rid;
    records[2].value = Value::Int(999).Serialize();  // rand(10,20) cannot return 999.
    break;
  }
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

TEST(NondetValidation, ExtraRecordedValueRejected) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  served.reports.nondet.begin()->second.push_back({"time", Value::Int(1e9).Serialize()});
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

TEST(NondetValidation, MissingRecordRejected) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  served.reports.nondet.begin()->second.pop_back();
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

TEST(NondetValidation, WrongBuiltinNameRejected) {
  Workload w = NondetWorkload();
  ServedWorkload served = ServeWorkload(w);
  served.reports.nondet.begin()->second[0].name = "microtime";
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

}  // namespace
}  // namespace orochi

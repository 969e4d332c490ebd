// Completeness (Theorem 10) and schedule-related properties (Lemma 5): every trace +
// reports produced by the well-behaved server must be accepted — by the grouped audit, the
// sequential baseline, and OOO re-execution under arbitrary well-formed schedules — and
// all must agree. The audit's extracted final state must match the server's ground truth.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/auditor.h"
#include "src/core/ooo_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

Workload RandomCounterWorkload(uint64_t seed, size_t n) {
  Rng rng(seed);
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = rng.Chance(0.3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(rng.UniformInt(0, 3));
    item.params["who"] = "w" + std::to_string(rng.UniformInt(0, 4));
    w.items.push_back(std::move(item));
  }
  return w;
}

class CompletenessProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompletenessProperty, WellBehavedRunsAlwaysAccepted) {
  uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  Workload w = RandomCounterWorkload(seed, 40);
  ServedWorkload served = ServeWorkload(w, /*num_workers=*/3);

  Auditor auditor(&w.app);
  AuditResult grouped = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(grouped.accepted) << grouped.reason;
  AuditResult seq = auditor.AuditSequential(served.trace, served.reports, served.initial);
  EXPECT_TRUE(seq.accepted) << seq.reason;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompletenessProperty, ::testing::Range(0, 10));

// Lemma 5 (schedule indifference): OOO audits under different well-formed schedules give
// the same verdict — ACCEPT for honest runs.
class ScheduleIndifference : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleIndifference, RandomSchedulesAllAccept) {
  uint64_t seed = 7000 + static_cast<uint64_t>(GetParam());
  Workload w = RandomCounterWorkload(seed, 25);
  ServedWorkload served = ServeWorkload(w);
  Result<ProcessedReports> processed = ProcessOpReports(served.trace, served.reports);
  ASSERT_TRUE(processed.ok()) << processed.error();

  const auto& op_counts = processed.value().op_counts;
  OpSchedule schedules[] = {
      SequentialSchedule(served.trace, op_counts),
      TopologicalSchedule(processed.value()),
      RandomWellFormedSchedule(served.trace, op_counts, seed * 3 + 1),
      RandomWellFormedSchedule(served.trace, op_counts, seed * 3 + 2),
  };
  for (const OpSchedule& schedule : schedules) {
    AuditResult r = OOOAudit(&w.app, served.trace, served.reports, served.initial, schedule);
    EXPECT_TRUE(r.accepted) << r.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleIndifference, ::testing::Range(0, 6));

// Lemma 5's other half: on a tampered run, every schedule rejects.
TEST(ScheduleIndifference, TamperedRunRejectedUnderAllSchedules) {
  Workload w = RandomCounterWorkload(123, 20);
  ServedWorkload served = ServeWorkload(w);
  // Tamper a response.
  for (TraceEvent& e : served.trace.events) {
    if (e.kind == TraceEvent::Kind::kResponse) {
      e.body += "x";
      break;
    }
  }
  Result<ProcessedReports> processed = ProcessOpReports(served.trace, served.reports);
  ASSERT_TRUE(processed.ok());
  const auto& op_counts = processed.value().op_counts;
  for (uint64_t s : {1ull, 2ull, 3ull}) {
    OpSchedule schedule = RandomWellFormedSchedule(served.trace, op_counts, s);
    AuditResult r = OOOAudit(&w.app, served.trace, served.reports, served.initial, schedule);
    EXPECT_FALSE(r.accepted);
  }
}

TEST(FinalState, MatchesServerGroundTruth) {
  Workload w = RandomCounterWorkload(55, 60);
  ServedWorkload served = ServeWorkload(w);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  ASSERT_TRUE(r.accepted) << r.reason;

  // KV contents match exactly.
  EXPECT_EQ(r.final_state.kv.size(), served.final_state.kv.size());
  for (const auto& [key, v] : served.final_state.kv) {
    auto it = r.final_state.kv.find(key);
    ASSERT_NE(it, r.final_state.kv.end()) << key;
    EXPECT_TRUE(Value::DeepEquals(it->second, v)) << key;
  }
  // Registers match.
  for (const auto& [name, v] : served.final_state.registers) {
    auto it = r.final_state.registers.find(name);
    ASSERT_NE(it, r.final_state.registers.end()) << name;
    EXPECT_TRUE(Value::DeepEquals(it->second, v)) << name;
  }
  // Database row counts match (full row equality is covered by the next-period audit).
  EXPECT_EQ(r.final_state.db.RowCount("hits"), served.final_state.db.RowCount("hits"));
}

TEST(FinalState, ChainsIntoNextAuditPeriod) {
  // Period 1 runs and is audited; its extracted final state boots period 2's audit (§4.5).
  Workload w1 = RandomCounterWorkload(77, 30);
  ServedWorkload served1 = ServeWorkload(w1);
  Auditor auditor(&w1.app);
  AuditResult r1 = auditor.Audit(served1.trace, served1.reports, served1.initial);
  ASSERT_TRUE(r1.accepted) << r1.reason;

  // Period 2: server continues from its own state; verifier boots from r1.final_state.
  Workload w2 = RandomCounterWorkload(78, 30);
  w2.initial = served1.final_state;
  ServedWorkload served2 = ServeWorkload(w2);
  AuditResult r2 = auditor.Audit(served2.trace, served2.reports, r1.final_state);
  EXPECT_TRUE(r2.accepted) << r2.reason;
}

// The server's Database updates a row in place, so a later SELECT without ORDER BY lists
// it where it always was; the verifier must list rows in that same order. An honest run
// whose responses echo row order is accepted, and the audited final state, row order
// included, equals the server's own database and chains into the next period.
TEST(FinalState, RowOrderAfterUpdatesMatchesTheServer) {
  Workload w;
  w.name = "row-order";
  ASSERT_TRUE(w.app.AddScript("/bump", R"WS(
db_query("UPDATE t SET n = n + 1 WHERE id = " . intval(input("id")));
$rows = db_query("SELECT id, n FROM t");
foreach ($rows as $r) { echo $r["id"] . ":" . $r["n"] . " "; }
)WS").ok());
  ASSERT_TRUE(w.initial.db.ExecuteText("CREATE TABLE t (id INT, n INT)").ok());
  ASSERT_TRUE(w.initial.db.ExecuteText("INSERT INTO t (id, n) VALUES (1, 0), (2, 0), (3, 0)").ok());
  for (int id : {1, 3, 1, 2}) {
    w.items.push_back({"/bump", {{"id", std::to_string(id)}}});
  }
  ServedWorkload served = ServeWorkload(w, /*num_workers=*/1);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  ASSERT_TRUE(r.accepted) << r.reason;
  ASSERT_NE(r.final_state.db.Rows("t"), nullptr);
  EXPECT_EQ(*r.final_state.db.Rows("t"), *served.final_state.db.Rows("t"));

  w.initial = served.final_state;
  ServedWorkload served2 = ServeWorkload(w, /*num_workers=*/1);
  AuditResult r2 = auditor.Audit(served2.trace, served2.reports, r.final_state);
  EXPECT_TRUE(r2.accepted) << r2.reason;
  EXPECT_EQ(*r2.final_state.db.Rows("t"), *served2.final_state.db.Rows("t"));
}

TEST(Idempotence, DuplicatedGroupMembershipStillAccepted) {
  // "The verifier can filter out duplicates, but it does not have to, since re-execution
  // is idempotent" (§3.1).
  Workload w = RandomCounterWorkload(99, 20);
  ServedWorkload served = ServeWorkload(w);
  // Duplicate one rid inside its own group.
  auto& [tag, rids] = *served.reports.groups.begin();
  (void)tag;
  rids.push_back(rids[0]);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(r.accepted) << r.reason;
}

TEST(UnknownEndpoint, AuditedDeterministically) {
  Workload w;
  w.name = "missing";
  w.app = BuildCounterApp();
  Result<StmtResult> cr =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  ASSERT_TRUE(cr.ok());
  w.items.push_back({"/no/such/page", {}});
  w.items.push_back({"/counter/hit", {{"key", "k"}, {"who", "w"}}});
  ServedWorkload served = ServeWorkload(w);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(r.accepted) << r.reason;
}

TEST(UnknownEndpoint, ClaimedOpsOnMissingScriptRejected) {
  Workload w;
  w.name = "missing";
  w.app = BuildCounterApp();
  w.items.push_back({"/no/such/page", {}});
  ServedWorkload served = ServeWorkload(w);
  // Forge: claim the missing-script request performed an operation.
  served.reports.op_counts[1] = 1;
  served.reports.objects.push_back({ObjectKind::kRegister, "X"});
  served.reports.op_logs.emplace_back();
  served.reports.op_logs.back().push_back(
      {1, 1, StateOpType::kRegisterWrite, MakeRegisterWriteContents(Value::Int(5))});
  Auditor auditor(&w.app);
  EXPECT_FALSE(auditor.Audit(served.trace, served.reports, served.initial).accepted);
}

TEST(GroupChunking, SmallMaxGroupSizeStillAccepts) {
  Workload w = RandomCounterWorkload(31, 40);
  ServedWorkload served = ServeWorkload(w);
  AuditOptions opts;
  opts.max_group_size = 3;  // Force heavy chunking.
  Auditor auditor(&w.app, opts);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(r.accepted) << r.reason;
}

TEST(DedupToggle, BothConfigurationsAgree) {
  Workload w = RandomCounterWorkload(41, 40);
  ServedWorkload served = ServeWorkload(w);
  AuditOptions on;
  on.enable_query_dedup = true;
  AuditOptions off;
  off.enable_query_dedup = false;
  AuditResult with_dedup = Auditor(&w.app, on).Audit(served.trace, served.reports, served.initial);
  AuditResult without =
      Auditor(&w.app, off).Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(with_dedup.accepted) << with_dedup.reason;
  EXPECT_TRUE(without.accepted) << without.reason;
}

// Workload-level completeness across all three paper applications at small scale, with a
// concurrency sweep.
class AppCompleteness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AppCompleteness, AllAppsAccept) {
  int app_index = std::get<0>(GetParam());
  int workers = std::get<1>(GetParam());
  Workload w;
  if (app_index == 0) {
    WikiConfig c;
    c.num_pages = 10;
    c.num_users = 5;
    c.num_requests = 120;
    w = MakeWikiWorkload(c);
  } else if (app_index == 1) {
    ForumConfig c;
    c.num_topics = 3;
    c.num_users = 6;
    c.num_requests = 120;
    w = MakeForumWorkload(c);
  } else {
    ConfConfig c;
    c.num_papers = 6;
    c.num_reviewers = 4;
    c.reviews_target = 8;
    c.review_length = 100;
    c.views_per_reviewer = 8;
    w = MakeConfWorkload(c);
  }
  ServedWorkload served = ServeWorkload(w, workers);
  Auditor auditor(&w.app);
  AuditResult r = auditor.Audit(served.trace, served.reports, served.initial);
  EXPECT_TRUE(r.accepted) << r.reason;
  // The audited final state is the server's own database, row order included.
  EXPECT_EQ(r.final_state.db.TableNames(), served.final_state.db.TableNames());
  for (const std::string& table : served.final_state.db.TableNames()) {
    ASSERT_NE(r.final_state.db.Rows(table), nullptr) << table;
    EXPECT_EQ(*r.final_state.db.Rows(table), *served.final_state.db.Rows(table)) << table;
  }
}

INSTANTIATE_TEST_SUITE_P(AppsAndWorkers, AppCompleteness,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(1, 2, 8)));

}  // namespace
}  // namespace orochi

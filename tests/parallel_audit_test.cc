// Parallel-audit determinism: the SSCO audit must be a pure function of
// (trace, reports, initial state) — the worker-thread count may change wall-clock time but
// never the verdict, the rejection reason, the final state, or the work-volume stats.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/common/task_pool.h"
#include "src/core/auditor.h"
#include "src/server/tamper.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

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

AuditResult AuditAt(const Workload& w, const ServedWorkload& served, size_t threads) {
  AuditOptions options;
  options.num_threads = threads;
  // Small chunks force several tasks per group so multi-thread runs genuinely interleave.
  options.max_group_size = 64;
  Auditor auditor(&w.app, options);
  return auditor.Audit(served.trace, served.reports, served.initial);
}

void ExpectSameVerdictAcrossThreadCounts(const Workload& w, const ServedWorkload& served,
                                         bool expect_accept) {
  AuditResult base = AuditAt(w, served, 1);
  EXPECT_EQ(base.accepted, expect_accept) << w.name << ": " << base.reason;
  std::string base_fp = base.accepted ? InitialStateFingerprint(base.final_state) : "";
  for (size_t threads : {size_t{2}, size_t{8}}) {
    AuditResult r = AuditAt(w, served, threads);
    EXPECT_EQ(r.accepted, base.accepted) << w.name << " at " << threads << " threads";
    EXPECT_EQ(r.reason, base.reason) << w.name << " at " << threads << " threads";
    if (base.accepted) {
      EXPECT_EQ(InitialStateFingerprint(r.final_state), base_fp)
          << w.name << ": final_state diverged at " << threads << " threads";
      // Work-volume stats must not depend on scheduling. Dedup-cache hits may convert to
      // issued SELECTs under concurrency (two workers racing on the same window), so only
      // the sum is invariant.
      EXPECT_EQ(r.stats.total_instructions, base.stats.total_instructions) << w.name;
      EXPECT_EQ(r.stats.multivalent_instructions, base.stats.multivalent_instructions)
          << w.name;
      EXPECT_EQ(r.stats.ops_checked, base.stats.ops_checked) << w.name;
      EXPECT_EQ(r.stats.num_groups, base.stats.num_groups) << w.name;
      EXPECT_EQ(r.stats.groups_multi, base.stats.groups_multi) << w.name;
      EXPECT_EQ(r.stats.fallback_groups, base.stats.fallback_groups) << w.name;
      EXPECT_EQ(r.stats.db_selects_issued + r.stats.db_selects_deduped,
                base.stats.db_selects_issued + base.stats.db_selects_deduped)
          << w.name;
      // group_stats merge in group-walk order, so the sequences line up exactly.
      ASSERT_EQ(r.stats.group_stats.size(), base.stats.group_stats.size()) << w.name;
      for (size_t i = 0; i < r.stats.group_stats.size(); i++) {
        EXPECT_EQ(r.stats.group_stats[i].script, base.stats.group_stats[i].script);
        EXPECT_EQ(r.stats.group_stats[i].n, base.stats.group_stats[i].n);
        EXPECT_EQ(r.stats.group_stats[i].length, base.stats.group_stats[i].length);
      }
    }
  }
}

TEST(ParallelAudit, CounterAcceptedIdenticallyAcrossThreadCounts) {
  Workload w = SmallCounterWorkload(200);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, WikiAcceptedIdenticallyAcrossThreadCounts) {
  WikiConfig config;
  config.num_pages = 20;
  config.num_users = 10;
  config.num_requests = 600;
  Workload w = MakeWikiWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, ForumAcceptedIdenticallyAcrossThreadCounts) {
  ForumConfig config;
  config.num_topics = 4;
  config.num_users = 12;
  config.num_requests = 600;
  Workload w = MakeForumWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, ConfAcceptedIdenticallyAcrossThreadCounts) {
  ConfConfig config;
  config.num_papers = 12;
  config.num_reviewers = 6;
  config.reviews_target = 30;
  config.review_length = 200;
  config.max_updates_per_paper = 4;
  config.views_per_reviewer = 20;
  Workload w = MakeConfWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, TamperedForumRejectedWithSameReasonAcrossThreadCounts) {
  ForumConfig config;
  config.num_topics = 4;
  config.num_users = 12;
  config.num_requests = 400;
  Workload w = MakeForumWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ASSERT_TRUE(TamperResponseBody(&served.trace, 7, "<html>forged</html>"));
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/false);
}

TEST(ParallelAudit, TamperedLogRejectedWithSameReasonAcrossThreadCounts) {
  Workload w = SmallCounterWorkload(120);
  // One server worker: entries 0 and 1 are then the first request's kv_get and kv_set of
  // one key, which do not commute. With concurrent workers they can be two requests' gets
  // of different keys, whose swap is a consistent log and rightly accepted.
  ServedWorkload served = ServeWorkload(w, /*num_workers=*/1);
  int kv_object = served.reports.FindObject(ObjectKind::kKv, "");
  ASSERT_GE(kv_object, 0);
  size_t log_size = served.reports.op_logs[static_cast<size_t>(kv_object)].size();
  ASSERT_GE(log_size, 2u);
  ASSERT_TRUE(SwapLogEntries(&served.reports, static_cast<size_t>(kv_object), 0, 1));
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/false);
}

// Every request a deduplicated SELECT serves receives the same result Value. A request
// that mutates its copy of the rows must leave its group mates' (and the dedup cache's)
// rows untouched: the grouped audit accepts with the sequential baseline's final state at
// every thread count.
TEST(ParallelAudit, MutatedSharedSelectRowsStayPrivateToTheirRequest) {
  Workload w = SmallCounterWorkload(0);
  ASSERT_TRUE(w.app.AddScript("/counter/mutate", R"WS(
$who = input("who");
$rows = db_query("SELECT who, n FROM hits WHERE key = 'k0'");
$rows[0]["who"] = $rows[0]["who"] . "-" . $who;
$rows[0]["x"] = $who;
$rows[] = array("who" => $who);
echo count($rows) . "|" . $rows[0]["who"] . "|" . $rows[0]["x"];
)WS").ok());
  ASSERT_TRUE(
      w.initial.db.ExecuteText("INSERT INTO hits (key, who, n) VALUES ('k0', 'seed', 1)").ok());
  for (size_t i = 0; i < 160; i++) {
    WorkItem item;
    item.script = (i % 8 == 7) ? "/counter/hit" : "/counter/mutate";
    item.params["key"] = "k0";
    item.params["who"] = "w" + std::to_string(i % 5);
    w.items.push_back(std::move(item));
  }
  ServedWorkload served = ServeWorkload(w);
  size_t mutate_bodies = 0;
  for (const TraceEvent& e : served.trace.events) {
    const WorkItem& item = w.items[e.rid - 1];
    if (e.kind == TraceEvent::Kind::kResponse && item.script == "/counter/mutate") {
      const std::string& who = item.params.at("who");
      std::string tail = "|seed-" + who + "|" + who;
      ASSERT_GE(e.body.size(), tail.size()) << e.body;
      EXPECT_EQ(e.body.substr(e.body.size() - tail.size()), tail) << e.body;
      mutate_bodies++;
    }
  }
  EXPECT_EQ(mutate_bodies, 140u);

  AuditResult seq = Auditor(&w.app).AuditSequential(served.trace, served.reports,
                                                    served.initial);
  ASSERT_TRUE(seq.accepted) << seq.reason;
  std::string seq_fp = InitialStateFingerprint(seq.final_state);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditResult r = AuditAt(w, served, threads);
    ASSERT_TRUE(r.accepted) << threads << " threads: " << r.reason;
    EXPECT_EQ(InitialStateFingerprint(r.final_state), seq_fp) << threads << " threads";
    EXPECT_GT(r.stats.groups_multi, 0u) << threads << " threads";
    EXPECT_GT(r.stats.db_selects_deduped, 0u) << threads << " threads";
  }
}

// A rid listed in two control-flow groups is adversarial input: re-execution is
// idempotent, so the audit must still accept — at every thread count (such chunks are
// serialized internally to keep per-rid state single-writer).
TEST(ParallelAudit, DuplicateRidAcrossGroupsStaysDeterministic) {
  Workload w = SmallCounterWorkload(100);
  ServedWorkload served = ServeWorkload(w);
  ASSERT_FALSE(served.reports.groups.empty());
  uint64_t first_tag = served.reports.groups.begin()->first;
  RequestId dup = served.reports.groups.begin()->second.front();
  uint64_t fresh_tag = served.reports.groups.rbegin()->first + 1;
  served.reports.groups[fresh_tag].push_back(dup);
  AuditResult base = AuditAt(w, served, 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    AuditResult r = AuditAt(w, served, threads);
    EXPECT_EQ(r.accepted, base.accepted) << "threads=" << threads;
    EXPECT_EQ(r.reason, base.reason) << "threads=" << threads;
  }
  (void)first_tag;
}

// A pool of one spawns no thread and runs the list in its given order, so every
// one-thread audit stage is that stage's serial order.
TEST(TaskPool, OneWorkerRunsEveryTaskOnTheCallerInListOrder) {
  const std::vector<size_t> tasks = {5, 3, 9, 0, 7, 1, 8, 2, 6, 4};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> ran;
  bool on_caller = true;
  TaskPool(1).Run(tasks, [&](size_t t) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    ran.push_back(t);
  });
  EXPECT_EQ(ran, tasks);
  EXPECT_TRUE(on_caller);
}

// Idle workers claim tasks in list order from one shared cursor. With task 0 held until
// every other task has finished, the second worker must run all of 1..9, in list order:
// a pool that deals the list to workers up front strands part of it behind task 0 (or
// hands it over out of order).
TEST(TaskPool, AnIdleWorkerTakesTheNextTaskInListOrder) {
  std::vector<size_t> tasks(10);
  std::iota(tasks.begin(), tasks.end(), 0);
  std::mutex mu;
  std::condition_variable others_done;
  std::vector<size_t> ran;  // Every task but 0, in the order they ran.
  std::thread::id blocked;
  std::vector<std::thread::id> ran_on;
  bool released = false;
  TaskPool(2).Run(tasks, [&](size_t t) {
    std::unique_lock<std::mutex> lock(mu);
    if (t == 0) {
      blocked = std::this_thread::get_id();
      released = others_done.wait_for(lock, std::chrono::seconds(60),
                                      [&] { return ran.size() == tasks.size() - 1; });
      return;
    }
    ran.push_back(t);
    ran_on.push_back(std::this_thread::get_id());
    others_done.notify_all();
  });
  EXPECT_TRUE(released);
  EXPECT_EQ(ran, std::vector<size_t>({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  for (const std::thread::id& id : ran_on) {
    EXPECT_NE(id, blocked);
  }
}

#if defined(__linux__)
// The pool moves each spawned worker to its own CPU only to start it there: every task
// runs exactly once, with the caller's whole affinity mask, so the kernel may still move
// the worker. More workers than CPUs wrap around the mask.
TEST(TaskPool, WorkersRunEveryTaskOnceWithTheCallersAffinityMask) {
  cpu_set_t caller;
  CPU_ZERO(&caller);
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  std::vector<size_t> tasks(64);
  std::iota(tasks.begin(), tasks.end(), 0);
  std::vector<int> runs(tasks.size(), 0);
  std::vector<char> same_mask(tasks.size(), 0);
  TaskPool(8).Run(tasks, [&](size_t t) {
    cpu_set_t mine;
    CPU_ZERO(&mine);
    same_mask[t] = sched_getaffinity(0, sizeof(mine), &mine) == 0 && CPU_EQUAL(&mine, &caller);
    runs[t]++;
  });
  for (size_t t = 0; t < tasks.size(); t++) {
    EXPECT_EQ(runs[t], 1) << "task " << t;
    EXPECT_TRUE(same_mask[t]) << "task " << t;
  }
}
#endif

}  // namespace
}  // namespace orochi

// Domain example: run the MediaWiki-style workload end to end — concurrent server,
// trace collection, grouped audit — and print the acceleration the verifier obtained,
// plus a demonstration that the verifier's extracted final state matches the server's
// (so consecutive audit periods chain, §4.5).
#include <cstdio>

#include "examples/example_util.h"
#include "src/common/timer.h"
#include "src/core/auditor.h"
#include "src/server/collector.h"
#include "src/server/thread_server.h"
#include "src/workload/workloads.h"

using namespace orochi;

int main() {
  WikiConfig config;
  config.num_pages = 60;
  config.num_users = 20;
  config.num_requests = 3000;
  Workload w = MakeWikiWorkload(config);

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Collector collector;
  WallTimer serve_timer;
  demo::ServeAll(w, &core, &collector);
  double serve_seconds = serve_timer.Seconds();
  Trace trace = collector.TakeTrace();
  Reports reports = core.TakeReports();

  std::printf("wiki workload: %zu requests served in %.2fs (%.0f req/s, 4 workers)\n",
              trace.NumRequests(), serve_seconds,
              static_cast<double>(trace.NumRequests()) / serve_seconds);

  Auditor auditor(&w.app);
  WallTimer grouped_timer;
  AuditResult grouped = auditor.Audit(trace, reports, w.initial);
  double grouped_seconds = grouped_timer.Seconds();

  WallTimer baseline_timer;
  AuditResult baseline = auditor.AuditSequential(trace, reports, w.initial);
  double baseline_seconds = baseline_timer.Seconds();

  std::printf("grouped (SSCO) audit:   %s in %.3fs\n",
              grouped.accepted ? "ACCEPT" : "REJECT", grouped_seconds);
  std::printf("sequential baseline:    %s in %.3fs\n",
              baseline.accepted ? "ACCEPT" : "REJECT", baseline_seconds);
  if (!grouped.accepted || !baseline.accepted) {
    std::printf("unexpected rejection: %s%s\n", grouped.reason.c_str(),
                baseline.reason.c_str());
    return 1;
  }
  std::printf("verifier speedup: %.1fx\n", baseline_seconds / grouped_seconds);
  const AuditStats& gs = grouped.stats;
  auto phase = [&](obs::Phase p) { return gs.phases.seconds[static_cast<int>(p)]; };
  std::printf("grouped audit breakdown (thread-seconds): procOpRep %.3fs, db redo %.3fs, "
              "reexec %.3fs, db query %.3fs, compare %.3fs\n",
              phase(obs::Phase::kProcOpReports), phase(obs::Phase::kDbRedo),
              phase(obs::Phase::kPass2Execute), phase(obs::Phase::kDbQuery),
              phase(obs::Phase::kCompare));
  std::printf("grouped instructions: %llu total, %llu multivalent; baseline instructions: "
              "%llu\n",
              static_cast<unsigned long long>(gs.total_instructions),
              static_cast<unsigned long long>(gs.multivalent_instructions),
              static_cast<unsigned long long>(baseline.stats.total_instructions));
  std::printf("control-flow groups: %llu (%llu multi-request); query dedup: %llu of %llu "
              "SELECTs answered from cache\n",
              static_cast<unsigned long long>(grouped.stats.num_groups),
              static_cast<unsigned long long>(grouped.stats.groups_multi),
              static_cast<unsigned long long>(grouped.stats.db_selects_deduped),
              static_cast<unsigned long long>(grouped.stats.db_selects_deduped +
                                              grouped.stats.db_selects_issued));

  // The audit's byproduct: the end-of-period state, which seeds the next audit. It must
  // agree with the server's ground truth.
  InitialState server_state = core.SnapshotState();
  bool db_match = grouped.final_state.db.RowCount("pages") == server_state.db.RowCount("pages");
  bool kv_match = grouped.final_state.kv.size() == server_state.kv.size();
  std::printf("final-state handoff: pages rows %zu vs %zu, kv keys %zu vs %zu -> %s\n",
              grouped.final_state.db.RowCount("pages"), server_state.db.RowCount("pages"),
              grouped.final_state.kv.size(), server_state.kv.size(),
              db_match && kv_match ? "match" : "MISMATCH");
  return db_match && kv_match ? 0 : 1;
}

// Ablation (§4.5, §5.2): read-query deduplication on vs off.
//
// The paper observes dedup matters most for read-dominated workloads (wiki); this harness
// audits each workload twice — dedup enabled and disabled — and reports DB-query time and
// SELECT counts. Grouping stays on in both configurations, isolating dedup's contribution.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/auditor.h"

using namespace orochi;

int main() {
  std::printf("Query dedup ablation (grouped audit, dedup on vs off)\n");
  std::printf("%-8s | %9s %9s %9s | %9s %9s | %8s\n", "app", "selects", "issued", "deduped",
              "dbq on(s)", "dbq off(s)", "saving");
  std::printf("--------------------------------------------------------------------------\n");
  for (Workload (*make)() : {&BenchWiki, &BenchForum, &BenchConf}) {
    Workload w = make();
    ServedRun run = ServeForBench(w, /*record=*/true);

    AuditOptions with_dedup;
    with_dedup.enable_query_dedup = true;
    Auditor auditor_on(&w.app, with_dedup);
    double cpu0 = ProcessCpuSeconds();
    AuditResult on = auditor_on.Audit(run.trace, run.reports, w.initial);
    double on_cpu = ProcessCpuSeconds() - cpu0;

    AuditOptions without_dedup;
    without_dedup.enable_query_dedup = false;
    Auditor auditor_off(&w.app, without_dedup);
    cpu0 = ProcessCpuSeconds();
    AuditResult off = auditor_off.Audit(run.trace, run.reports, w.initial);
    double off_cpu = ProcessCpuSeconds() - cpu0;

    if (!on.accepted || !off.accepted) {
      std::printf("!! audit rejected: %s%s\n", on.reason.c_str(), off.reason.c_str());
      continue;
    }
    uint64_t total = on.stats.db_selects_issued + on.stats.db_selects_deduped;
    std::printf("%-8s | %9llu %9llu %9llu | %9.3f %9.3f | %6.1f%%\n", w.name.c_str(),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(on.stats.db_selects_issued),
                static_cast<unsigned long long>(on.stats.db_selects_deduped),
                on.stats.phases.seconds[static_cast<int>(obs::Phase::kDbQuery)],
                off.stats.phases.seconds[static_cast<int>(obs::Phase::kDbQuery)],
                100.0 * (1.0 - on_cpu / off_cpu));
  }
  std::printf("\npaper shape: dedup's win is largest on the read-dominated wiki workload\n");
  return 0;
}

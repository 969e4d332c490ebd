// Figure 9: decomposition of audit-time CPU costs, baseline vs OROCHI, three workloads.
//
// Paper stacks: "PHP" (re-execution), "DB query", and for OROCHI additionally
// "ProcOpRep" (Figures 5/6 logic), "DB redo" (versioned-store build), "Other".
// The shape under reproduction: OROCHI's PHP + DB-query bars shrink several-fold vs the
// baseline (SIMD-on-demand + query dedup), while ProcOpRep/DB-redo add small fixed costs.
//
// Columns are the audit's phase breakdown (AuditStats::phases) in thread-seconds, summed
// over audit workers, so they stay comparable at any OROCHI_AUDIT_THREADS. "other" is
// every remaining phase (output compare); "unattrib" is process CPU minus the sum of all
// phases (planning, pool start-up, scheduler noise), reported rather than hidden.
//
// "steps" counts scalar instruction executions: a univalent instruction is one step and a
// multivalent one is n steps in a group of n (AuditStats::component_steps). "ns/step" is
// PHP time over steps, so the grouped audit's per-component cost reads against the
// baseline's time per instruction.
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/auditor.h"

using namespace orochi;

namespace {

void PrintRow(const char* config, const AuditStats& s, double total) {
  auto secs = [&](obs::Phase p) { return s.phases.seconds[static_cast<int>(p)]; };
  const double php = secs(obs::Phase::kPass2Execute);
  const double query = secs(obs::Phase::kDbQuery);
  const double procop = secs(obs::Phase::kProcOpReports);
  const double redo = secs(obs::Phase::kDbRedo);
  const double phases = s.phases.total_seconds();
  const uint64_t steps = s.total_instructions - s.multivalent_instructions + s.component_steps;
  std::printf("  %-9s total %6.2fs | PHP %6.2fs | DBquery %6.2fs | ProcOpRep %5.2fs | "
              "DBredo %5.2fs | other %5.2fs | unattrib %5.2fs | "
              "instr %lluk (%lluk multi) | steps %lluk (%lluk component) | "
              "PHP %.0f ns/step\n",
              config, total, php, query, procop, redo,
              phases - php - query - procop - redo, total - phases,
              static_cast<unsigned long long>(s.total_instructions / 1000),
              static_cast<unsigned long long>(s.multivalent_instructions / 1000),
              static_cast<unsigned long long>(steps / 1000),
              static_cast<unsigned long long>(s.component_steps / 1000),
              steps == 0 ? 0.0 : php * 1e9 / static_cast<double>(steps));
}

}  // namespace

int main() {
  std::printf("Figure 9: decomposition of audit-time CPU costs\n");
  for (Workload (*make)() : {&BenchWiki, &BenchForum, &BenchConf}) {
    Workload w = make();
    ServedRun run = ServeForBench(w, /*record=*/true);
    Auditor auditor(&w.app);

    std::printf("%s (%zu requests):\n", w.name.c_str(), run.trace.NumRequests());
    double cpu0 = ProcessCpuSeconds();
    AuditResult baseline = auditor.AuditSequential(run.trace, run.reports, w.initial);
    double baseline_total = ProcessCpuSeconds() - cpu0;
    if (!baseline.accepted) {
      std::printf("!! baseline rejected: %s\n", baseline.reason.c_str());
    }
    PrintRow("baseline", baseline.stats, baseline_total);

    cpu0 = ProcessCpuSeconds();
    AuditResult grouped = auditor.Audit(run.trace, run.reports, w.initial);
    double grouped_total = ProcessCpuSeconds() - cpu0;
    if (!grouped.accepted) {
      std::printf("!! orochi rejected: %s\n", grouped.reason.c_str());
    }
    PrintRow("orochi", grouped.stats, grouped_total);
    std::printf("  dedup: %llu of %llu SELECTs served from cache; groups %llu "
                "(%llu multi)\n",
                static_cast<unsigned long long>(grouped.stats.db_selects_deduped),
                static_cast<unsigned long long>(grouped.stats.db_selects_deduped +
                                                grouped.stats.db_selects_issued),
                static_cast<unsigned long long>(grouped.stats.num_groups),
                static_cast<unsigned long long>(grouped.stats.groups_multi));
  }
  std::printf("\npaper shape: OROCHI bars are several-fold shorter; ProcOpRep and DB-redo "
              "are small additive costs\n");
  return 0;
}

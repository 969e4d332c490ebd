// Audit-phase tracing: the one timing model of the audit. Scoped TraceSpans add
// thread-seconds per pipeline phase to the audit's own PhaseBreakdown — the runtime twin
// of the paper's Figure 9 (ProcOpRep / DB redo / PHP re-execution / DB query / compare),
// extended with the phases the grown system added (pass-1 skeleton streaming, shard
// merge, pass-2 I/O wait, checkpoint replay).
//
//   {
//     obs::TraceSpan span(&stats.phases, obs::Phase::kCompare);
//     ctx.CompareOutputs();
//   }  // adds the scope's time to stats.phases, mirrors it into PhaseTracer::Default()
//
// Phases are disjoint: no span encloses another on the same breakdown, and time recorded
// quietly inside an open span (the db_query seconds of a chunk's SELECTs) is subtracted
// from it. Parallel workers each own a breakdown, merged by the caller, so a breakdown
// sums thread-seconds, not wall time: passes 1 and 2 (with each chunk's output checks)
// run on the audit's worker pool, and each task there times itself into a breakdown no
// other thread touches. Every span is also mirrored into the process-wide PhaseTracer,
// which feeds orochi_phase_<name>_micros_total / _spans_total counters and, when
// OROCHI_TRACE_FILE is set, buffers one event per span and dumps Chrome-trace JSON (load
// it in chrome://tracing or https://ui.perfetto.dev) at process exit or on
// FlushChromeTrace().
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace orochi {
namespace obs {

// The audit pipeline's phases, in pipeline order. Keep kPhaseNames in sync.
enum class Phase : int {
  kShardMerge = 0,    // Sequential fold of per-shard skeletons into one epoch.
  kPass1Skeleton,     // Streaming spill files into skeletons + offset indexes: a span per
                      // pool task (one file).
  kProcOpReports,     // Balanced-trace check, per-rid slot pre-build, ProcessOpReports.
  kDbRedo,            // Versioned-store builds (register / KV / DB redo).
  kPass2IoWait,       // Worker time blocked in the chunk gate paging bytes in (budget
                      // waits + the chunk's preads).
  kPass2Execute,      // Re-executing one group chunk, its db_query time excluded (PHP).
  kDbQuery,           // SELECTs run against versioned storage; a span per SELECT issued.
  kCheckpointReplay,  // Journaled chunks replayed instead of re-executed on resume.
  kCompare,           // Re-executed outputs vs. traced responses: a span per task's
                      // checks (response paging included), plus the final verdict scan.
};
inline constexpr int kNumPhases = 9;
const char* PhaseName(Phase phase);

// Per-phase thread-seconds + span counts. One per audited epoch (AuditStats::phases);
// the tracer's totals() is the same shape accumulated over the process lifetime.
struct PhaseBreakdown {
  double seconds[kNumPhases] = {};
  uint64_t spans[kNumPhases] = {};

  // Records one span of `phase` lasting `secs` without mirroring it anywhere; an
  // enclosing TraceSpan on this breakdown subtracts and forwards it when it closes.
  void Add(Phase phase, double secs);
  void MergeFrom(const PhaseBreakdown& o);
  double total_seconds() const;
  // Renders {"pass2_execute": {"seconds": s, "spans": n}, ...} for the /epochs endpoint.
  std::string Json() const;
};

class PhaseTracer {
 public:
  // A private tracer (tests). `registry` nullptr = do not mirror into any registry.
  explicit PhaseTracer(MetricsRegistry* registry = nullptr);

  // The process-wide tracer every TraceSpan mirrors into. Mirrors into
  // MetricsRegistry::Default() and — when OROCHI_TRACE_FILE was set at first use —
  // buffers chrome-trace events, flushed at process exit.
  static PhaseTracer* Default();

  // Buffers chrome-trace events for every span until `max_events`, after which events are
  // dropped (and counted); FlushChromeTrace writes them to `path` as Chrome-trace JSON.
  void EnableChromeTrace(std::string path, size_t max_events = 1 << 20);
  Status FlushChromeTrace();

  // Records `spans` completed spans of `phase` totalling `duration_seconds`, as one
  // chrome-trace event starting at `start_seconds` (NowSeconds() at span entry). The
  // mirrored micros counter always equals floor(total nanos / 1000), so sub-microsecond
  // spans add up instead of truncating to 0 one by one.
  void Record(Phase phase, double start_seconds, double duration_seconds,
              uint64_t spans = 1);

  PhaseBreakdown totals() const;
  // Monotonic seconds since this tracer was created (span timestamps' epoch).
  double NowSeconds() const;

 private:
  struct ChromeEvent {
    Phase phase;
    uint64_t start_micros;
    uint64_t dur_micros;
    uint32_t tid;
  };

  const std::chrono::steady_clock::time_point birth_;
  MetricsRegistry* const registry_;
  Counter* phase_micros_[kNumPhases] = {};
  Counter* phase_spans_[kNumPhases] = {};
  // Spans close at most once per chunk, so plain shared atomics never contend hot.
  std::atomic<uint64_t> nanos_[kNumPhases] = {};
  std::atomic<uint64_t> spans_[kNumPhases] = {};

  std::atomic<bool> chrome_enabled_{false};
  std::mutex chrome_mu_;  // Guards the event buffer + path (span completion only).
  std::string chrome_path_;
  size_t chrome_max_events_ = 0;
  std::vector<ChromeEvent> chrome_events_;
  uint64_t chrome_dropped_ = 0;
};

// RAII span: times its scope on the calling thread. On destruction it adds the time to
// `sink` and mirrors it into PhaseTracer::Default(). Whatever was Add()ed to `sink` while
// the span was open is subtracted from this span's time and forwarded to the tracer in
// one record per phase. Spans on one sink must not nest.
class TraceSpan {
 public:
  TraceSpan(PhaseBreakdown* sink, Phase phase)
      : sink_(sink), phase_(phase), at_open_(*sink),
        start_(PhaseTracer::Default()->NowSeconds()) {}
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  PhaseBreakdown* const sink_;
  const Phase phase_;
  const PhaseBreakdown at_open_;
  const double start_;
};

}  // namespace obs
}  // namespace orochi

#endif  // SRC_OBS_TRACE_H_

#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace orochi {
namespace obs {

namespace {

// Chrome-trace (and the metric-name suffixes) want stable lowercase identifiers.
constexpr const char* kPhaseNames[kNumPhases] = {
    "shard_merge",   "pass1_skeleton", "proc_op_reports",   "db_redo", "pass2_io_wait",
    "pass2_execute", "db_query",       "checkpoint_replay", "compare",
};

// Stable small integer per thread for chrome-trace "tid" fields.
uint32_t ChromeTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

const char* PhaseName(Phase phase) { return kPhaseNames[static_cast<int>(phase)]; }

void PhaseBreakdown::Add(Phase phase, double secs) {
  seconds[static_cast<int>(phase)] += secs;
  spans[static_cast<int>(phase)]++;
}

void PhaseBreakdown::MergeFrom(const PhaseBreakdown& o) {
  for (int p = 0; p < kNumPhases; p++) {
    seconds[p] += o.seconds[p];
    spans[p] += o.spans[p];
  }
}

double PhaseBreakdown::total_seconds() const {
  double total = 0;
  for (double s : seconds) {
    total += s;
  }
  return total;
}

std::string PhaseBreakdown::Json() const {
  std::string out = "{";
  for (int p = 0; p < kNumPhases; p++) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"seconds\": %.6f, \"spans\": %" PRIu64 "}",
                  kPhaseNames[p], seconds[p], spans[p]);
    if (p > 0) {
      out += ", ";
    }
    out += buf;
  }
  out += "}";
  return out;
}

PhaseTracer::PhaseTracer(MetricsRegistry* registry)
    : birth_(std::chrono::steady_clock::now()), registry_(registry) {
  if (registry_ != nullptr) {
    for (int p = 0; p < kNumPhases; p++) {
      const std::string stem = std::string("orochi_phase_") + kPhaseNames[p];
      phase_micros_[p] = registry_->GetCounter(
          stem + "_micros_total",
          std::string("thread microseconds spent in the ") + kPhaseNames[p] +
              " audit phase");
      phase_spans_[p] = registry_->GetCounter(
          stem + "_spans_total",
          std::string("spans recorded for the ") + kPhaseNames[p] + " audit phase");
    }
  }
}

PhaseTracer* PhaseTracer::Default() {
  static PhaseTracer* tracer = [] {
    auto* t = new PhaseTracer(MetricsRegistry::Default());
    if (const char* path = std::getenv("OROCHI_TRACE_FILE"); path != nullptr && *path) {
      t->EnableChromeTrace(path);
      // Best-effort dump when the process exits normally (daemons also flush on Stop).
      std::atexit([] { (void)Default()->FlushChromeTrace(); });
    }
    return t;
  }();
  return tracer;
}

void PhaseTracer::EnableChromeTrace(std::string path, size_t max_events) {
  std::lock_guard<std::mutex> lock(chrome_mu_);
  chrome_path_ = std::move(path);
  chrome_max_events_ = max_events;
  chrome_events_.reserve(std::min<size_t>(max_events, 4096));
  chrome_enabled_.store(true, std::memory_order_release);
}

void PhaseTracer::Record(Phase phase, double start_seconds, double duration_seconds,
                         uint64_t spans) {
  const int p = static_cast<int>(phase);
  const uint64_t nanos =
      duration_seconds > 0 ? static_cast<uint64_t>(std::llround(duration_seconds * 1e9))
                           : 0;
  const uint64_t before = nanos_[p].fetch_add(nanos, std::memory_order_relaxed);
  spans_[p].fetch_add(spans, std::memory_order_relaxed);
  if (phase_micros_[p] != nullptr) {
    // Each record adds the micros its nanos carry the running total across; the deltas
    // telescope, so the counter is exactly floor(total nanos / 1000) at any quiescent
    // point, whatever order concurrent records land in.
    phase_micros_[p]->Inc((before + nanos) / 1000 - before / 1000);
    phase_spans_[p]->Inc(spans);
  }
  if (chrome_enabled_.load(std::memory_order_acquire)) {
    ChromeEvent event;
    event.phase = phase;
    event.start_micros =
        start_seconds > 0 ? static_cast<uint64_t>(std::llround(start_seconds * 1e6)) : 0;
    event.dur_micros = nanos / 1000;
    event.tid = ChromeTid();
    std::lock_guard<std::mutex> lock(chrome_mu_);
    if (chrome_events_.size() < chrome_max_events_) {
      chrome_events_.push_back(event);
    } else {
      chrome_dropped_++;
    }
  }
}

PhaseBreakdown PhaseTracer::totals() const {
  PhaseBreakdown out;
  for (int p = 0; p < kNumPhases; p++) {
    out.seconds[p] =
        static_cast<double>(nanos_[p].load(std::memory_order_acquire)) * 1e-9;
    out.spans[p] = spans_[p].load(std::memory_order_acquire);
  }
  return out;
}

double PhaseTracer::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - birth_).count();
}

Status PhaseTracer::FlushChromeTrace() {
  if (!chrome_enabled_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  std::vector<ChromeEvent> events;
  std::string path;
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(chrome_mu_);
    events = chrome_events_;
    path = chrome_path_;
    dropped = chrome_dropped_;
  }
  // Plain stdio on purpose: obs sits below src/common, so it cannot use Env without a
  // dependency cycle — and the trace dump is diagnostic output, not audit state.
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Error("obs: cannot open trace file " + path);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < events.size(); i++) {
    const ChromeEvent& e = events[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"audit\", \"ph\": \"X\", \"ts\": %" PRIu64
                 ", \"dur\": %" PRIu64 ", \"pid\": 1, \"tid\": %u}%s\n",
                 PhaseName(e.phase), e.start_micros, e.dur_micros, e.tid,
                 i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "]");
  if (dropped > 0) {
    std::fprintf(f, ", \"droppedEvents\": %" PRIu64, dropped);
  }
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    return Status::Error("obs: short write flushing trace file " + path);
  }
  return Status::Ok();
}

TraceSpan::~TraceSpan() {
  PhaseTracer* tracer = PhaseTracer::Default();
  const double elapsed = tracer->NowSeconds() - start_;
  double nested = 0;
  for (int p = 0; p < kNumPhases; p++) {
    const uint64_t spans = sink_->spans[p] - at_open_.spans[p];
    if (spans == 0) {
      continue;
    }
    const double secs = sink_->seconds[p] - at_open_.seconds[p];
    nested += secs;
    tracer->Record(static_cast<Phase>(p), start_, secs, spans);
  }
  const double own = std::max(0.0, elapsed - nested);
  sink_->Add(phase_, own);
  tracer->Record(phase_, start_, own);
}

}  // namespace obs
}  // namespace orochi

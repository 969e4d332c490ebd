// In-memory span recorder for the ledger's outside-in tracing: the benchmark wraps each
// public call it makes into a layer (file decode, pass-1 indexing, Prepare, chunk
// re-execution, chunk loads, network sends) in a span, keeps every span in memory, and
// writes them out as Chrome-trace JSON when the run ends (open the file in
// https://ui.perfetto.dev or chrome://tracing).
//
// A span's self time is its duration minus the part of its interval covered by the union
// of its children — children may overlap (chunks re-executing on several workers), so
// the union, not the sum, is subtracted.
#ifndef LEDGER_KIT_SPAN_RECORDER_H_
#define LEDGER_KIT_SPAN_RECORDER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace orochi {
namespace ledger {

// Small stable per-thread index for the Chrome-trace "tid" column.
inline uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  std::string name;     // "<layer>.<what>", e.g. "core.prepare".
  double start_s = 0;   // Seconds since the recorder's time origin.
  double end_s = -1;    // < start_s while the span is open.
  uint32_t tid = 0;
  int epoch = -1;  // Epoch index the span belongs to; -1 = none.
};

// Per-name aggregate over closed spans.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  double max_s = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  // Recorders that share `origin` lay their spans on one time axis in the Chrome trace.
  explicit SpanRecorder(Clock::time_point origin = Clock::now()) : origin_(origin) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double Now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  // Opens a span on the calling thread; thread-safe.
  uint64_t Begin(std::string name, uint64_t parent, int epoch) {
    Span s;
    s.parent = parent;
    s.name = std::move(name);
    s.tid = ThreadIndex();
    s.epoch = epoch;
    s.start_s = Now();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void End(uint64_t id) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_s = now;
  }

  // Records a span whose interval was measured elsewhere (times from Now()).
  uint64_t Add(std::string name, uint64_t parent, int epoch, double start_s, double end_s) {
    const uint64_t id = Begin(std::move(name), parent, epoch);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].start_s = start_s;
    spans_[id - 1].end_s = end_s;
    return id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Self time of every closed span, indexed like spans() (id - 1).
  std::vector<double> SelfTimes() const {
    std::vector<Span> all = spans();
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : all) {
      if (s.parent != 0 && s.end_s >= s.start_s) {
        children[s.parent].emplace_back(s.start_s, s.end_s);
      }
    }
    std::vector<double> self(all.size(), 0);
    for (const Span& s : all) {
      if (s.end_s < s.start_s) {
        continue;
      }
      double covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<double, double>>& iv = it->second;
        std::sort(iv.begin(), iv.end());
        double run_start = 0;
        double run_end = -1;
        for (const auto& [a, b] : iv) {
          const double lo = std::max(a, s.start_s);
          const double hi = std::min(b, s.end_s);
          if (hi <= lo) {
            continue;
          }
          if (lo > run_end) {
            if (run_end > run_start) {
              covered += run_end - run_start;
            }
            run_start = lo;
            run_end = hi;
          } else {
            run_end = std::max(run_end, hi);
          }
        }
        if (run_end > run_start) {
          covered += run_end - run_start;
        }
      }
      self[s.id - 1] = (s.end_s - s.start_s) - covered;
    }
    return self;
  }

  std::map<std::string, SpanTotals> Totals() const {
    std::vector<Span> all = spans();
    std::vector<double> self = SelfTimes();
    std::map<std::string, SpanTotals> out;
    for (const Span& s : all) {
      if (s.end_s < s.start_s) {
        continue;
      }
      SpanTotals& t = out[s.name];
      const double d = s.end_s - s.start_s;
      t.count++;
      t.total_s += d;
      t.self_s += self[s.id - 1];
      t.max_s = std::max(t.max_s, d);
    }
    return out;
  }

  // Appends this recorder's closed spans as Chrome-trace complete ("X") events, comma
  // separated, to `out`. `pid` separates recorders (passes) into their own track groups.
  void AppendChromeEvents(std::string* out, int pid) const {
    std::vector<Span> all = spans();
    std::vector<double> self = SelfTimes();
    char buf[512];
    for (const Span& s : all) {
      if (s.end_s < s.start_s) {
        continue;
      }
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":%d,\"tid\":%u,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"epoch\":%d,\"self_us\":%.3f}}",
                    out->empty() ? "" : ",\n", s.name.c_str(), layer.c_str(),
                    s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, pid, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.epoch, self[s.id - 1] * 1e6);
      *out += buf;
    }
  }

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1].
};

// RAII span. A null recorder records nothing, so untraced code paths share the call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent, int epoch)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, parent, epoch) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* const rec_;
  const uint64_t id_;
};

// Writes `recorders` as one Chrome-trace JSON file, one pid per recorder.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanRecorder*>& recorders) {
  std::string events;
  for (size_t i = 0; i < recorders.size(); i++) {
    recorders[i]->AppendChromeEvents(&events, static_cast<int>(i + 1));
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s\n]}\n", events.c_str());
  return std::fclose(f) == 0;
}

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_SPAN_RECORDER_H_

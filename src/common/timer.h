// Wall-clock and process-CPU timers used by the benchmark harnesses and audit statistics.
#ifndef SRC_COMMON_TIMER_H_
#define SRC_COMMON_TIMER_H_

#include <sys/resource.h>
#include <sys/time.h>

#include <chrono>
#include <cstdint>

namespace orochi {

// Monotonic wall-clock timer reporting elapsed seconds.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Process CPU time (user + system) in seconds, summed across all threads. The paper's
// evaluation reports CPU costs (Figure 8, Figure 9); we use the same resource-accounting
// notion via getrusage.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto to_sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_sec(ru.ru_utime) + to_sec(ru.ru_stime);
}

}  // namespace orochi

#endif  // SRC_COMMON_TIMER_H_

// Machine-speed calibration. The ledger runs on shared machines whose speed drifts by
// tens of percent over minutes (clock changes, neighbours on sibling hyperthreads and
// caches), far more than any regression it must catch. So it times a fixed kernel
// between timed units and reports each time at the kernel's reference speed:
//
//   time at reference speed = raw time × kReferenceKernelS / kernel time
//
// The kernel is the benchmark's own code — the program cannot make it faster or slower —
// and does what the audited program spends its time on: decimal strings built, hashed and
// looked up in a hash map that is cleared as it fills (branches, hashing, small
// allocations). On the development machine the ratio of serving work to kernel time
// held within 1% over six minutes in which either one alone varied by 18-19%.
#ifndef LEDGER_KIT_CALIBRATION_H_
#define LEDGER_KIT_CALIBRATION_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/common/timer.h"

namespace orochi {
namespace ledger {

// The kernel's time at reference speed: roughly its time on an undisturbed core of the
// machine the ledger was set up on (meta.reference_kernel_s). Only ratios between runs
// matter, so the constant must simply never change.
inline constexpr double kReferenceKernelS = 0.004;

// One run of the kernel (~4 ms), in wall seconds.
inline double KernelSeconds() {
  WallTimer t;
  std::unordered_map<std::string, int64_t> map;
  int64_t sink = 0;
  for (int64_t i = 0; i < 50000; i++) {
    sink += map[std::to_string(i * 7919 % 100003)] += i;
    if (map.size() > 5000) {
      map.clear();
    }
  }
  const double s = t.Seconds();
  return sink == 42 ? s + 1e-12 : s;  // Keeps the loop's result live.
}

// `raw_s` at reference speed, given the kernel time measured around it.
inline double AtReferenceSpeed(double raw_s, double kernel_s) {
  return kernel_s > 0 ? raw_s * kReferenceKernelS / kernel_s : raw_s;
}
inline double AtReferenceSpeed(double raw_s, double kernel_before_s, double kernel_after_s) {
  return AtReferenceSpeed(raw_s, (kernel_before_s + kernel_after_s) / 2);
}

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_CALIBRATION_H_

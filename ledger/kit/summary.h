// Sample summaries for the ledger's metrics: median, percentiles, and the quartiles the
// comparison script reads as run-to-run spread.
#ifndef LEDGER_KIT_SUMMARY_H_
#define LEDGER_KIT_SUMMARY_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace orochi {
namespace ledger {

// Linear interpolation between closest ranks: p in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// One reported metric: the value, its unit, how many samples it summarizes, and the
// first and third quartiles of those samples (equal to the value for a single sample).
struct Metric {
  double value = 0;
  std::string unit;
  size_t n = 0;
  double q1 = 0;
  double q3 = 0;
};

// `value` = the p-th percentile of `samples`.
inline Metric FromSamples(const std::vector<double>& samples, double p, const std::string& unit) {
  return Metric{Percentile(samples, p), unit, samples.size(), Percentile(samples, 0.25),
                Percentile(samples, 0.75)};
}

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_SUMMARY_H_

// Snapshot/diff of the process-wide MetricsRegistry, so the ledger reads the program's own
// counters (budget waits, coalesced reads, fsyncs, backpressure stalls) as the change
// across one measured step. Snapshots parse the registry's Prometheus text exposition:
// every unlabelled sample line "name value" becomes one entry (histograms contribute
// their _sum and _count lines).
#ifndef LEDGER_KIT_REGISTRY_DIFF_H_
#define LEDGER_KIT_REGISTRY_DIFF_H_

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "src/obs/metrics.h"

namespace orochi {
namespace ledger {

class RegistrySnapshot {
 public:
  static RegistrySnapshot Take() {
    RegistrySnapshot snap;
    std::istringstream in(obs::MetricsRegistry::Default()->TextExposition());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
        continue;
      }
      const size_t space = line.rfind(' ');
      if (space == std::string::npos) {
        continue;
      }
      snap.values_[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return snap;
  }

  // `name`'s value now minus its value in `earlier`; a series missing from a snapshot
  // reads as 0 (instruments register on first use).
  double DiffSince(const RegistrySnapshot& earlier, const std::string& name) const {
    return Get(name) - earlier.Get(name);
  }

 private:
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  std::map<std::string, double> values_;
};

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_REGISTRY_DIFF_H_

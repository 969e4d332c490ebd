// OpMap (paper Figures 3/5/12): the index from (requestID, opnum) to the unique log entry
// (object i, sequence number) claiming that operation. CheckLogs builds it and enforces the
// bijection between log entries and the (rid, 1..M(rid)) op space.
#ifndef SRC_CORE_OP_MAP_H_
#define SRC_CORE_OP_MAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/objects/object_model.h"

namespace orochi {

struct OpLocation {
  uint32_t object = UINT32_MAX;  // Object id i (index into reports.objects).
  uint32_t seqnum = 0;           // 1-based position in OLi.

  bool valid() const { return object != UINT32_MAX; }
};

class OpMap {
 public:
  // Pre-sizes the per-request slot array to M(rid); all slots start unset.
  void DeclareRequest(RequestId rid, uint32_t op_count) {
    slots_[rid].resize(op_count);
  }

  // False when the slot is already set (duplicate claim) or out of range.
  bool Insert(RequestId rid, uint32_t opnum, OpLocation loc) {
    auto it = slots_.find(rid);
    if (it == slots_.end() || opnum == 0 || opnum > it->second.size()) {
      return false;
    }
    OpLocation& slot = it->second[opnum - 1];
    if (slot.valid()) {
      return false;
    }
    slot = loc;
    return true;
  }

  // Unset/absent lookups return an invalid location.
  OpLocation Find(RequestId rid, uint32_t opnum) const {
    auto it = slots_.find(rid);
    if (it == slots_.end() || opnum == 0 || opnum > it->second.size()) {
      return {};
    }
    return it->second[opnum - 1];
  }

  // True when every declared (rid, 1..M) slot is set.
  bool Complete() const {
    for (const auto& [rid, slots] : slots_) {
      (void)rid;
      for (const OpLocation& loc : slots) {
        if (!loc.valid()) {
          return false;
        }
      }
    }
    return true;
  }

  size_t TotalOps() const {
    size_t n = 0;
    for (const auto& [rid, slots] : slots_) {
      (void)rid;
      n += slots.size();
    }
    return n;
  }

 private:
  std::unordered_map<RequestId, std::vector<OpLocation>> slots_;
};

}  // namespace orochi

#endif  // SRC_CORE_OP_MAP_H_

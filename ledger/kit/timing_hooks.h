// Timing decorators the ledger installs around the audit's public extension points, so
// per-layer time is measured from outside the program: the two production chunk loaders
// (handed to the streamed audit through StreamAuditHooks) and an AuditTaskGate (handed to
// ExecuteAuditPlan) that brackets every re-executed chunk with a span. Nothing under src/
// knows they exist.
#ifndef LEDGER_KIT_TIMING_HOOKS_H_
#define LEDGER_KIT_TIMING_HOOKS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ledger/kit/span_recorder.h"
#include "src/core/audit_plan.h"
#include "src/stream/chunk_loader.h"
#include "src/stream/reports_index.h"
#include "src/stream/trace_index.h"

namespace orochi {
namespace ledger {

// Where decorator spans attach: the recorder plus the span (and epoch) the pass loop is
// currently inside. Worker and prefetch threads read it, so the fields are atomic.
struct SpanScope {
  SpanRecorder* recorder = nullptr;
  std::atomic<uint64_t> parent{0};
  std::atomic<int> epoch{-1};
};

// Calls and payload bytes one loader side served.
struct LoadTally {
  std::atomic<uint64_t> loads{0};
  std::atomic<uint64_t> bytes{0};
};

// Forwards to FileTraceChunkLoader, timing every Load / LoadBatch as "stream.trace_load".
// FileTraceChunkLoader caches open files by the set's file index, so one instance serves
// exactly one epoch's set.
class TimingTraceLoader : public TraceChunkLoader {
 public:
  TimingTraceLoader(SpanScope* scope, LoadTally* tally)
      : inner_(&kNoFiles), scope_(scope), tally_(tally) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    ScopedSpan span(scope_->recorder, "stream.trace_load", scope_->parent, scope_->epoch);
    tally_->loads++;
    tally_->bytes += set.loc(index).bytes;
    return inner_.Load(set, index, event);
  }
  Status LoadBatch(const StreamTraceSet& set, const std::vector<size_t>& indexes,
                   Trace* skeleton) override {
    ScopedSpan span(scope_->recorder, "stream.trace_load", scope_->parent, scope_->epoch);
    tally_->loads++;
    for (size_t index : indexes) {
      tally_->bytes += set.loc(index).bytes;
    }
    return inner_.LoadBatch(set, indexes, skeleton);
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    inner_.Evict(set, index, event);
  }
  void OnChunkResident(uint64_t bytes) override { inner_.OnChunkResident(bytes); }
  void OnChunkEvicted(uint64_t bytes) override { inner_.OnChunkEvicted(bytes); }

 private:
  static inline const StreamTraceSet kNoFiles{};  // The file table grows on first use.
  FileTraceChunkLoader inner_;
  SpanScope* const scope_;
  LoadTally* const tally_;
};

// Forwards to FileReportsChunkLoader, timing every Load as "stream.reports_load". One
// instance per epoch, for the same file-index reason as TimingTraceLoader.
class TimingReportsLoader : public ReportsChunkLoader {
 public:
  TimingReportsLoader(SpanScope* scope, LoadTally* tally)
      : inner_(&kNoFiles), scope_(scope), tally_(tally) {}

  Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
              uint64_t count) override {
    ScopedSpan span(scope_->recorder, "stream.reports_load", scope_->parent, scope_->epoch);
    tally_->loads++;
    for (uint64_t i = 0; i < count; i++) {
      tally_->bytes += set->loc(object, first_seqnum + i).bytes;
    }
    return inner_.Load(set, object, first_seqnum, count);
  }
  void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
             uint64_t count) override {
    inner_.Evict(set, object, first_seqnum, count);
  }
  void OnChunkResident(uint64_t bytes) override { inner_.OnChunkResident(bytes); }
  void OnChunkEvicted(uint64_t bytes) override { inner_.OnChunkEvicted(bytes); }

 private:
  static inline const StreamReportsSet kNoFiles{};
  FileReportsChunkLoader inner_;
  SpanScope* const scope_;
  LoadTally* const tally_;
};

// Records one "core.chunk" span per executed task: Acquire runs on the worker right
// before the chunk re-executes and Release right after it retires (audit_plan.h), so the
// span is the chunk's busy time.
class TimingTaskGate : public AuditTaskGate {
 public:
  explicit TimingTaskGate(SpanScope* scope) : scope_(scope) {}

  Status Acquire(const AuditTask& task) override {
    const uint64_t id = scope_->recorder->Begin("core.chunk", scope_->parent, scope_->epoch);
    std::lock_guard<std::mutex> lock(mu_);
    open_[task.order] = id;
    return Status::Ok();
  }
  void Release(const AuditTask& task) override {
    uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = open_[task.order];
      open_.erase(task.order);
    }
    scope_->recorder->End(id);
  }

 private:
  SpanScope* const scope_;
  std::mutex mu_;
  std::unordered_map<size_t, uint64_t> open_;  // task.order -> open span id.
};

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_TIMING_HOOKS_H_

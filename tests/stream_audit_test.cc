// Out-of-core streaming audit (src/stream/): the streamed path must be bit-identical to
// FeedEpoch over the decoded files (FeedDecodedFiles) — accept/reject, rejection reason,
// and final_state — at 1/2/8 worker threads, while a counting chunk loader proves the
// configured memory budget actually bounded the resident trace payloads. Sharded
// ingestion rides the same engine: a single shard degenerates to FeedEpochFilesStreamed,
// shards merge deterministically, and rid overlap across shards is a deterministic merge
// error.
#include "src/stream/stream_audit.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/audit_session.h"
#include "src/common/timer.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"
#include "src/server/tamper.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

// Record-level shape of a reports spill file: the largest single record payload (the
// pass-1 transient residency ceiling) and how many v3 op-log segment records it carries.
struct ReportsFileShape {
  uint64_t largest_payload = 0;
  size_t segment_records = 0;
};

ReportsFileShape ScanReportsFile(const std::string& path) {
  ReportsFileShape shape;
  ReportsRecordReader reader;
  EXPECT_TRUE(reader.Open(path).ok());
  uint8_t type = 0;
  std::string payload;
  while (true) {
    Result<bool> next = reader.Next(&type, &payload);
    EXPECT_TRUE(next.ok()) << next.error();
    if (!next.ok() || !next.value()) {
      break;
    }
    shape.largest_payload = std::max<uint64_t>(shape.largest_payload, payload.size());
    if (type == wire::kReportsRecOpLogSegment) {
      shape.segment_records++;
    }
  }
  return shape;
}

// One tally shared by the trace- and reports-side counting loaders: a single ChunkBudget
// admits trace payloads and op-log contents together, so the peak that the budget
// assertion must bound is the COMBINED resident byte count across both loaders.
struct ResidencyTally {
  std::mutex mu;
  uint64_t resident = 0;
  uint64_t peak = 0;

  void Add(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu);
    resident += bytes;
    peak = std::max(peak, resident);
  }
  void Sub(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu);
    resident -= bytes;
  }
};

// Wraps the real loader, mirroring the budget's view of residency: bytes go resident per
// chunk (OnChunkResident fires after the ChunkBudget admits the chunk) and drop per chunk
// as tasks retire. peak_bytes() is the number the budget assertion runs against.
class CountingChunkLoader : public TraceChunkLoader {
 public:
  explicit CountingChunkLoader(const StreamTraceSet* set, ResidencyTally* tally = nullptr)
      : real_(set), tally_(tally) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      loads_++;
    }
    return real_.Load(set, index, event);
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      evicts_++;
    }
    real_.Evict(set, index, event);
  }
  void OnChunkResident(uint64_t bytes) override {
    if (tally_ != nullptr) {
      tally_->Add(bytes);
    }
    std::lock_guard<std::mutex> lock(mu_);
    resident_bytes_ += bytes;
    active_chunks_++;
    peak_bytes_ = std::max(peak_bytes_, resident_bytes_);
    peak_chunks_ = std::max(peak_chunks_, active_chunks_);
    largest_chunk_bytes_ = std::max(largest_chunk_bytes_, bytes);
  }
  void OnChunkEvicted(uint64_t bytes) override {
    if (tally_ != nullptr) {
      tally_->Sub(bytes);
    }
    std::lock_guard<std::mutex> lock(mu_);
    resident_bytes_ -= bytes;
    active_chunks_--;
  }

  uint64_t loads() const { return loads_; }
  uint64_t evicts() const { return evicts_; }
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t peak_bytes() const { return peak_bytes_; }
  uint64_t peak_chunks() const { return peak_chunks_; }
  uint64_t largest_chunk_bytes() const { return largest_chunk_bytes_; }

 private:
  FileTraceChunkLoader real_;
  ResidencyTally* tally_;
  mutable std::mutex mu_;
  uint64_t loads_ = 0;
  uint64_t evicts_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
  uint64_t active_chunks_ = 0;
  uint64_t peak_chunks_ = 0;
  uint64_t largest_chunk_bytes_ = 0;
};

// The reports-side twin: wraps the real op-log loader, feeding the shared tally so the
// combined trace+reports peak is observable, and tracking loads/evicts/peak on its own.
class CountingReportsLoader : public ReportsChunkLoader {
 public:
  CountingReportsLoader(const StreamReportsSet* set, ResidencyTally* tally)
      : real_(set), tally_(tally) {}

  Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
              uint64_t count) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry_loads_ += count;
    }
    return real_.Load(set, object, first_seqnum, count);
  }
  void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
             uint64_t count) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry_evicts_ += count;
    }
    real_.Evict(set, object, first_seqnum, count);
  }
  void OnChunkResident(uint64_t bytes) override {
    tally_->Add(bytes);
    std::lock_guard<std::mutex> lock(mu_);
    resident_bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, resident_bytes_);
  }
  void OnChunkEvicted(uint64_t bytes) override {
    tally_->Sub(bytes);
    std::lock_guard<std::mutex> lock(mu_);
    resident_bytes_ -= bytes;
  }

  uint64_t entry_loads() const { return entry_loads_; }
  uint64_t entry_evicts() const { return entry_evicts_; }
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  FileReportsChunkLoader real_;
  ResidencyTally* tally_;
  mutable std::mutex mu_;
  uint64_t entry_loads_ = 0;
  uint64_t entry_evicts_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
};

Workload CounterWorkload(size_t n, const std::string& key_prefix = "") {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = key_prefix + "k" + std::to_string(i % 5);
    item.params["who"] = key_prefix + "w" + std::to_string(i % 7);
    w.items.push_back(std::move(item));
  }
  return w;
}

struct SpilledEpoch {
  Workload w;
  InitialState initial;
  std::string trace_path;
  std::string reports_path;
};

SpilledEpoch SpillCounterEpoch(const std::string& tag, size_t n) {
  SpilledEpoch out;
  out.w = CounterWorkload(n);
  ServedWorkload served = ServeWorkload(out.w);
  out.initial = served.initial;
  out.trace_path = ::testing::TempDir() + "/stream_" + tag + "_trace.bin";
  out.reports_path = ::testing::TempDir() + "/stream_" + tag + "_reports.bin";
  EXPECT_TRUE(WriteTraceFile(out.trace_path, served.trace).ok());
  EXPECT_TRUE(WriteReportsFile(out.reports_path, served.reports).ok());
  return out;
}

AuditOptions StreamOptions(size_t threads, size_t budget) {
  AuditOptions options;
  options.num_threads = threads;
  options.max_group_size = 16;  // Small chunks: many tasks page in and out per group.
  options.max_resident_bytes = budget;
  return options;
}

constexpr size_t kBudget = 4096;

TEST(StreamAudit, StreamedMatchesInMemoryAcrossThreadCounts) {
  SpilledEpoch e = SpillCounterEpoch("match", 240);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditSession in_memory =
        AuditSession::Open(&e.w.app, StreamOptions(threads, 0), e.initial);
    Result<AuditResult> ref = FeedDecodedFiles(&in_memory, e.trace_path, e.reports_path);
    ASSERT_TRUE(ref.ok()) << ref.error();
    ASSERT_TRUE(ref.value().accepted) << ref.value().reason;

    AuditSession streamed =
        AuditSession::Open(&e.w.app, StreamOptions(threads, kBudget), e.initial);
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(e.trace_path).ok());
    // The budget must genuinely bind: the epoch's request payloads exceed it several
    // times over, so acceptance under the assertion below proves paging + eviction ran.
    ASSERT_GT(probe.total_request_payload_bytes(), 3 * kBudget);

    CountingChunkLoader loader(&probe);
    StreamAuditHooks hooks;
    hooks.loader = &loader;
    Result<AuditResult> got =
        streamed.FeedEpochFilesStreamed(e.trace_path, e.reports_path, &hooks);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
              InitialStateFingerprint(ref.value().final_state))
        << threads << " threads";
    EXPECT_EQ(InitialStateFingerprint(streamed.state()),
              InitialStateFingerprint(in_memory.state()));

    // The counting loader proves the budget held: peak resident trace bytes never passed
    // it, everything loaded was evicted, and nothing is resident after the audit.
    EXPECT_GT(loader.loads(), 0u);
    EXPECT_EQ(loader.loads(), loader.evicts());
    EXPECT_EQ(loader.resident_bytes(), 0u);
    EXPECT_LE(loader.largest_chunk_bytes(), kBudget) << "test workload mis-sized";
    EXPECT_LE(loader.peak_bytes(), kBudget) << threads << " threads";
  }
}

// The tentpole guarantee: ONE budget bounds the combined resident trace payloads AND
// op-log contents. The counting loader pair shares a tally, so the assertions below are
// on the true cross-loader peak — while the streamed verdict and final_state stay
// bit-identical to the in-memory path at every (threads × budget) point. The 64-byte
// budget is smaller than a typical chunk (those admit solo, through the oversized arm),
// and 0 is unlimited.
TEST(StreamAudit, TracePlusReportsBytesShareOneBudgetAcrossThreadCounts) {
  SpilledEpoch e = SpillCounterEpoch("both_sides", 240);
  StreamReportsSet reports_probe;
  ASSERT_TRUE(reports_probe.AppendFile(e.reports_path).ok());
  // The reports side must genuinely bind too: the epoch's op-log bytes exceed the budget
  // several times over, so acceptance under the assertions below proves the versioned
  // -store builds and the chunk gate really paged log contents in and out.
  ASSERT_GT(reports_probe.total_log_payload_bytes(), 3 * kBudget);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditSession in_memory =
        AuditSession::Open(&e.w.app, StreamOptions(threads, 0), e.initial);
    Result<AuditResult> ref = FeedDecodedFiles(&in_memory, e.trace_path, e.reports_path);
    ASSERT_TRUE(ref.ok()) << ref.error();
    ASSERT_TRUE(ref.value().accepted) << ref.value().reason;

    for (size_t budget_max : {size_t{64}, kBudget, size_t{0}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget_max));
      AuditSession streamed =
          AuditSession::Open(&e.w.app, StreamOptions(threads, budget_max), e.initial);
      StreamTraceSet trace_probe;
      ASSERT_TRUE(trace_probe.AppendFile(e.trace_path).ok());
      ResidencyTally tally;
      CountingChunkLoader trace_loader(&trace_probe, &tally);
      CountingReportsLoader reports_loader(&reports_probe, &tally);
      ChunkBudget budget(budget_max);
      StreamAuditHooks hooks;
      hooks.loader = &trace_loader;
      hooks.reports_loader = &reports_loader;
      hooks.budget = &budget;
      Result<AuditResult> got =
          streamed.FeedEpochFilesStreamed(e.trace_path, e.reports_path, &hooks);
      ASSERT_TRUE(got.ok()) << got.error();
      EXPECT_TRUE(got.value().accepted) << got.value().reason;
      EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
                InitialStateFingerprint(ref.value().final_state));

      // Both sides paged; everything loaded was evicted; nothing is resident after the
      // audit; and the COMBINED peak never passed the single budget — or, below the
      // largest chunk, the one oversized admission it let in alone.
      EXPECT_GT(trace_loader.loads(), 0u);
      EXPECT_GT(reports_loader.entry_loads(), 0u);
      EXPECT_EQ(trace_loader.loads(), trace_loader.evicts());
      EXPECT_EQ(reports_loader.entry_loads(), reports_loader.entry_evicts());
      EXPECT_EQ(tally.resident, 0u);
      if (budget_max != 0) {
        EXPECT_LE(budget.peak_bytes(),
                  std::max<uint64_t>(budget_max, budget.largest_acquire_bytes()));
      }
      if (budget_max == kBudget) {
        EXPECT_LE(budget.peak_bytes(), kBudget);
      }
      // The loader hooks fire after Acquire and before Release, so the tally's view is
      // always a lower bound on the budget's own high-water mark (equality is not
      // guaranteed under concurrency — another worker can release between a peer's
      // admission and its OnChunkResident).
      EXPECT_LE(tally.peak, budget.peak_bytes());

      // Pass 1 holds whole record payloads transiently while indexing — residency the
      // chunk budget cannot see. It is still bounded: at most one record, and no record
      // may exceed the v3 segment cap, so a writer regression that spills an over-cap
      // monolithic record (or an indexing regression that materializes more than one
      // record) fails right here, against max(budget, largest actual record).
      const ReportsFileShape shape = ScanReportsFile(e.reports_path);
      EXPECT_LE(shape.largest_payload, wire::kMaxOpLogSegmentBytes);
      const uint64_t transient = got.value().stats.pass1_transient_peak_bytes;
      EXPECT_GT(transient, 0u);
      EXPECT_EQ(transient, reports_probe.pass1_transient_peak_bytes());
      EXPECT_LE(transient, std::max<uint64_t>(budget_max, shape.largest_payload));
    }
  }
}

// The PR-9 acceptance scenario: ONE hot object whose op-log exceeds the v3 segment cap
// several times over (every request hits the same counter key with an ~800-byte user, so
// the shared hits-table object's log dwarfs wire::kMaxOpLogSegmentBytes). The writer must
// split that log across segment records, pass-1 transient residency must be bounded by
// one *segment* rather than the whole log, and an audit under OROCHI_AUDIT_BUDGET=65536
// must keep the combined resident bytes at or below max(budget, largest single segment)
// while staying bit-identical to the in-memory path.
TEST(StreamAudit, HotObjectSegmentedSpillAuditsWithinOneSegmentTransient) {
  Workload w;
  w.name = "hot_counter";
  w.app = BuildCounterApp();
  ASSERT_TRUE(
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)").ok());
  const std::string pad(800, 'x');
  for (size_t i = 0; i < 240; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "hot";
    item.params["who"] = "u" + std::to_string(i % 7) + pad;
    w.items.push_back(std::move(item));
  }
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = ::testing::TempDir() + "/stream_hot_trace.bin";
  const std::string reports_path = ::testing::TempDir() + "/stream_hot_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  // The spill really is segmented, and no record — segment or otherwise — passes the cap.
  const ReportsFileShape shape = ScanReportsFile(reports_path);
  ASSERT_GE(shape.segment_records, 2u) << "hot object did not cross the segment cap";
  ASSERT_LE(shape.largest_payload, wire::kMaxOpLogSegmentBytes);

  // Pass 1 over the segmented file transiently holds one segment, never the whole log.
  StreamReportsSet reports_probe;
  ASSERT_TRUE(reports_probe.AppendFile(reports_path).ok());
  ASSERT_GT(reports_probe.total_log_payload_bytes(), wire::kMaxOpLogSegmentBytes);
  EXPECT_EQ(reports_probe.pass1_transient_peak_bytes(), shape.largest_payload);

  // Audit with the budget resolved from the environment, exactly as deployed.
  constexpr uint64_t kHotBudget = 65536;
  ASSERT_EQ(setenv("OROCHI_AUDIT_BUDGET", "65536", 1), 0);
  AuditOptions options;
  options.num_threads = 2;
  options.max_group_size = 16;  // max_resident_bytes stays 0: the env variable decides.

  AuditSession in_memory = AuditSession::Open(&w.app, options, served.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&in_memory, trace_path, reports_path);
  ASSERT_TRUE(ref.ok()) << ref.error();
  ASSERT_TRUE(ref.value().accepted) << ref.value().reason;

  AuditSession streamed = AuditSession::Open(&w.app, options, served.initial);
  StreamTraceSet trace_probe;
  ASSERT_TRUE(trace_probe.AppendFile(trace_path).ok());
  ResidencyTally tally;
  CountingChunkLoader trace_loader(&trace_probe, &tally);
  CountingReportsLoader reports_loader(&reports_probe, &tally);
  StreamAuditHooks hooks;
  hooks.loader = &trace_loader;
  hooks.reports_loader = &reports_loader;
  Result<AuditResult> got =
      streamed.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
  ASSERT_EQ(unsetenv("OROCHI_AUDIT_BUDGET"), 0);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(ref.value().final_state));

  // The acceptance bound, on every phase's residency: budget-governed bytes and the
  // pass-1 transient both stay within max(budget, largest single segment).
  const uint64_t bound = std::max<uint64_t>(kHotBudget, shape.largest_payload);
  EXPECT_LE(tally.peak, bound);
  EXPECT_EQ(tally.resident, 0u);
  EXPECT_LE(got.value().stats.pass1_transient_peak_bytes, bound);
  EXPECT_EQ(got.value().stats.pass1_transient_peak_bytes,
            reports_probe.pass1_transient_peak_bytes());

  // The transient peak is also exported as a gauge for operators; SetMax is monotone, so
  // the registry's value is at least this audit's peak.
  EXPECT_GE(obs::MetricsRegistry::Default()
                ->GetGauge("orochi_pass1_transient_peak_bytes",
                           "largest record payload transiently resident during pass-1 "
                           "reports indexing")
                ->Value(),
            static_cast<int64_t>(got.value().stats.pass1_transient_peak_bytes));
}

TEST(StreamAudit, OpLogPointReadsReproduceContentsExactly) {
  Reports r;
  r.objects.push_back({ObjectKind::kRegister, "sess"});
  r.objects.push_back({ObjectKind::kKv, ""});
  r.op_logs.resize(2);
  OpRecord reg;
  reg.rid = 7;
  reg.opnum = 1;
  reg.type = StateOpType::kRegisterWrite;
  reg.contents = MakeRegisterWriteContents(Value::Str(std::string("v\0binary\xff", 9)));
  r.op_logs[0].push_back(reg);
  OpRecord set_op;
  set_op.rid = 7;
  set_op.opnum = 2;
  set_op.type = StateOpType::kKvSet;
  set_op.contents = MakeKvSetContents("k", Value::Int(42));
  OpRecord get_op;
  get_op.rid = 8;
  get_op.opnum = 1;
  get_op.type = StateOpType::kKvGet;
  get_op.contents = "k";
  r.op_logs[1].push_back(set_op);
  r.op_logs[1].push_back(get_op);
  r.groups[1] = {7, 8};
  r.op_counts[7] = 2;
  r.op_counts[8] = 1;
  r.nondet[7].push_back({"time", Value::Int(99).Serialize()});
  std::string path = ::testing::TempDir() + "/stream_oplog_point_reads.bin";
  ASSERT_TRUE(WriteReportsFile(path, r).ok());

  StreamReportsSet set;
  ASSERT_TRUE(set.AppendFile(path).ok());
  // The skeleton kept every structural field — and shed exactly the contents.
  ASSERT_EQ(set.skeleton().objects.size(), 2u);
  ASSERT_EQ(set.skeleton().op_logs[1].size(), 2u);
  EXPECT_EQ(set.skeleton().op_logs[0][0].rid, 7u);
  EXPECT_EQ(set.skeleton().op_logs[1][1].type, StateOpType::kKvGet);
  EXPECT_TRUE(set.skeleton().op_logs[0][0].contents.empty());
  EXPECT_TRUE(set.skeleton().op_logs[1][0].contents.empty());
  EXPECT_EQ(set.skeleton().groups, r.groups);
  EXPECT_EQ(set.skeleton().op_counts.at(7), 2u);
  EXPECT_EQ(set.skeleton().nondet.at(7).size(), 1u);
  EXPECT_GT(set.total_log_payload_bytes(), 0u);

  FileReportsChunkLoader loader(&set);
  ASSERT_TRUE(loader.Load(&set, 0, 1, 1).ok());
  ASSERT_TRUE(loader.Load(&set, 1, 1, 2).ok());
  EXPECT_EQ(set.skeleton().op_logs[0][0].contents, reg.contents);
  EXPECT_EQ(set.skeleton().op_logs[1][0].contents, set_op.contents);
  EXPECT_EQ(set.skeleton().op_logs[1][1].contents, get_op.contents);
  loader.Evict(&set, 0, 1, 1);
  loader.Evict(&set, 1, 1, 2);
  EXPECT_TRUE(set.skeleton().op_logs[0][0].contents.empty());
  EXPECT_TRUE(set.skeleton().op_logs[1][1].contents.empty());

  // A forward-scan segment sweep sees the same contents the resident reader decodes.
  ChunkBudget budget(0);
  SegmentedOpLogScanner scanner(&set, &loader, &budget);
  std::vector<std::string> seen;
  ASSERT_TRUE(scanner
                  .Scan(1,
                        [&](const OpRecord& op, uint64_t seqnum) {
                          EXPECT_EQ(seqnum, seen.size() + 1);
                          seen.push_back(op.contents);
                          return Status::Ok();
                        })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], set_op.contents);
  EXPECT_EQ(seen[1], get_op.contents);
  EXPECT_FALSE(scanner.io_failed());
}

TEST(StreamAudit, TamperedEpochRejectsIdenticallyInBothPathsAcrossThreads) {
  SpilledEpoch e = SpillCounterEpoch("tamper", 150);
  Result<Trace> trace = ReadTraceFile(e.trace_path);
  ASSERT_TRUE(trace.ok());
  RequestId victim = 0;
  for (const TraceEvent& ev : trace.value().events) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      victim = ev.rid;
      break;
    }
  }
  ASSERT_TRUE(TamperResponseBody(&trace.value(), victim, "forged"));
  std::string tampered_path = ::testing::TempDir() + "/stream_tampered_trace.bin";
  ASSERT_TRUE(WriteTraceFile(tampered_path, trace.value()).ok());

  std::string base_reason;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditSession in_memory =
        AuditSession::Open(&e.w.app, StreamOptions(threads, 0), e.initial);
    Result<AuditResult> ref = FeedDecodedFiles(&in_memory, tampered_path, e.reports_path);
    ASSERT_TRUE(ref.ok()) << ref.error();
    ASSERT_FALSE(ref.value().accepted);

    AuditSession streamed =
        AuditSession::Open(&e.w.app, StreamOptions(threads, kBudget), e.initial);
    Result<AuditResult> got = streamed.FeedEpochFilesStreamed(tampered_path, e.reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_FALSE(got.value().accepted);

    // One reason, across both paths and every thread count.
    EXPECT_EQ(got.value().reason, ref.value().reason) << threads << " threads";
    if (base_reason.empty()) {
      base_reason = got.value().reason;
      EXPECT_FALSE(base_reason.empty());
    } else {
      EXPECT_EQ(got.value().reason, base_reason) << threads << " threads";
    }
    // A rejected epoch advances neither session.
    EXPECT_EQ(streamed.epochs_accepted(), 0u);
    EXPECT_EQ(InitialStateFingerprint(streamed.state()),
              InitialStateFingerprint(e.initial));
  }
}

// Pass 3 on the pool: the real loader, except that (with `hold`) the Load of event
// `held` waits until the Load of event `release` has returned, so a later response is
// compared — and its outcome recorded — while an earlier one is still in flight. The Load
// of event `fail` (SIZE_MAX = none) fails like a spill file that vanished mid-audit.
class CompareOrderLoader : public TraceChunkLoader {
 public:
  CompareOrderLoader(const StreamTraceSet* set, bool hold, size_t held, size_t release,
                     size_t fail)
      : real_(set), hold_(hold), held_(held), release_(release), fail_(fail) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    if (hold_ && index == held_) {
      // Bounded, so a scheduler that never reaches `release` cannot hang the test.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::seconds(10), [&] { return released_; });
    }
    Status st = index == fail_
                    ? Status::Error("io: injected load failure of event " +
                                    std::to_string(index))
                    : real_.Load(set, index, event);
    if (index == release_) {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      cv_.notify_all();
    }
    return st;
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    real_.Evict(set, index, event);
  }

 private:
  FileTraceChunkLoader real_;
  const bool hold_;
  const size_t held_;
  const size_t release_;
  const size_t fail_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Two forged responses, the first and the last in trace order. On every worker count and
// budget the streamed REJECT names the earlier one — FeedDecodedFiles' reason — even when
// the later mismatch is recorded first; and when the later response's load fails instead
// of mismatching, the verdict stays that REJECT, never an I/O error.
TEST(StreamAudit, CompareRejectsTheEarliestFailureInTraceOrder) {
  SpilledEpoch e = SpillCounterEpoch("compare_order", 120);
  Result<Trace> trace = ReadTraceFile(e.trace_path);
  ASSERT_TRUE(trace.ok());
  size_t early = SIZE_MAX;
  size_t late = SIZE_MAX;
  for (size_t i = 0; i < trace.value().events.size(); i++) {
    if (trace.value().events[i].kind == TraceEvent::Kind::kResponse) {
      early = std::min(early, i);
      late = i;
    }
  }
  ASSERT_LT(early, late);
  const RequestId early_rid = trace.value().events[early].rid;
  const RequestId late_rid = trace.value().events[late].rid;
  ASSERT_TRUE(TamperResponseBody(&trace.value(), early_rid, "forged early"));
  ASSERT_TRUE(TamperResponseBody(&trace.value(), late_rid, "forged late"));
  const std::string tampered = ::testing::TempDir() + "/stream_compare_order_trace.bin";
  ASSERT_TRUE(WriteTraceFile(tampered, trace.value()).ok());

  AuditSession in_memory = AuditSession::Open(&e.w.app, StreamOptions(1, 0), e.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&in_memory, tampered, e.reports_path);
  ASSERT_TRUE(ref.ok()) << ref.error();
  ASSERT_FALSE(ref.value().accepted);
  EXPECT_EQ(ref.value().reason, "output: rid " + std::to_string(early_rid) +
                                    " response does not match re-execution");

  StreamTraceSet probe;
  ASSERT_TRUE(probe.AppendFile(tampered).ok());
  ASSERT_EQ(probe.skeleton().events[early].rid, early_rid);
  ASSERT_EQ(probe.skeleton().events[late].rid, late_rid);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t budget : {size_t{0}, kBudget}) {
      for (bool late_load_fails : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " budget=" +
                     std::to_string(budget) + (late_load_fails ? " late load fails" : ""));
        CompareOrderLoader loader(&probe, /*hold=*/threads > 1, early, late,
                                  late_load_fails ? late : SIZE_MAX);
        StreamAuditHooks hooks;
        hooks.loader = &loader;
        AuditSession streamed =
            AuditSession::Open(&e.w.app, StreamOptions(threads, budget), e.initial);
        Result<AuditResult> got =
            streamed.FeedEpochFilesStreamed(tampered, e.reports_path, &hooks);
        ASSERT_TRUE(got.ok()) << got.error();
        EXPECT_FALSE(got.value().accepted);
        EXPECT_EQ(got.value().reason, ref.value().reason);
        EXPECT_EQ(streamed.epochs_fed(), 1u);
      }
    }
  }
}

TEST(StreamAudit, BudgetSmallerThanLargestChunkLoadsOneChunkAtATime) {
  SpilledEpoch e = SpillCounterEpoch("tiny_budget", 120);
  // 64 bytes is below any single chunk's payload, so every chunk takes the oversized-chunk
  // path: admitted only while nothing else is resident — never two chunks at once.
  AuditSession streamed = AuditSession::Open(&e.w.app, StreamOptions(4, 64), e.initial);
  StreamTraceSet probe;
  ASSERT_TRUE(probe.AppendFile(e.trace_path).ok());
  CountingChunkLoader loader(&probe);
  StreamAuditHooks hooks;
  hooks.loader = &loader;
  Result<AuditResult> got =
      streamed.FeedEpochFilesStreamed(e.trace_path, e.reports_path, &hooks);
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_GT(loader.largest_chunk_bytes(), 64u) << "budget not actually undersized";
  EXPECT_EQ(loader.peak_chunks(), 1u);
  EXPECT_EQ(loader.peak_bytes(), loader.largest_chunk_bytes());

  AuditSession in_memory = AuditSession::Open(&e.w.app, StreamOptions(1, 0), e.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&in_memory, e.trace_path, e.reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted);
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(ref.value().final_state));
}

TEST(StreamAudit, FileErrorsMatchInMemoryPathAndConsumeNoEpoch) {
  Workload w = CounterWorkload(10);
  std::string missing = ::testing::TempDir() + "/stream_no_such_file.bin";
  AuditSession in_memory = AuditSession::Open(&w.app, StreamOptions(1, 0), w.initial);
  AuditSession streamed = AuditSession::Open(&w.app, StreamOptions(1, 0), w.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&in_memory, missing, missing);
  Result<AuditResult> got = streamed.FeedEpochFilesStreamed(missing, missing);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error(), ref.error());
  EXPECT_EQ(streamed.epochs_fed(), 0u);
}

// --- Sharded ingestion ---

struct ShardSpill {
  std::string trace_path;
  std::string reports_path;
};

// One front end: serves `items` (rids starting at base_rid) on its own ServerCore and a
// shard-stamped Collector, then spills the pair.
ShardSpill ServeShard(const Workload& w, const std::vector<WorkItem>& items,
                      uint32_t shard_id, RequestId base_rid, const std::string& tag) {
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Collector collector(shard_id);
  {
    ThreadServer server(&core, &collector, /*num_workers=*/4);
    RequestId rid = base_rid;
    for (const WorkItem& item : items) {
      server.Submit(rid++, item.script, item.params);
    }
    server.Drain();
  }
  ShardSpill out;
  out.trace_path = ::testing::TempDir() + "/shard_" + tag + "_trace.bin";
  out.reports_path = ::testing::TempDir() + "/shard_" + tag + "_reports.bin";
  EXPECT_TRUE(collector.Flush(out.trace_path).ok());
  EXPECT_TRUE(core.ExportReports(out.reports_path).ok());
  return out;
}

TEST(ShardedAudit, SingleShardDegeneratesToFeedEpochFilesStreamed) {
  SpilledEpoch e = SpillCounterEpoch("one_shard", 90);
  AuditSession via_files = AuditSession::Open(&e.w.app, StreamOptions(2, 0), e.initial);
  Result<AuditResult> ref = via_files.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted) << ref.error();

  AuditSession via_shards =
      AuditSession::Open(&e.w.app, StreamOptions(2, kBudget), e.initial);
  Result<AuditResult> got =
      via_shards.FeedShardedEpoch(std::vector<ShardEpochFiles>{{e.trace_path, e.reports_path}});
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(ref.value().final_state));
  EXPECT_EQ(via_shards.epochs_fed(), 1u);
  EXPECT_EQ(via_shards.epochs_accepted(), 1u);
}

TEST(ShardedAudit, MultiShardMatchesInMemoryMergedAuditAcrossThreads) {
  // Three front ends over disjoint key/user spaces and disjoint rid ranges, all starting
  // from the same initial state — the sharded deployment's contract.
  Workload base = CounterWorkload(0);
  std::vector<ShardSpill> spills;
  std::vector<uint32_t> ids = {3, 1, 2};  // Stamped out of order on purpose.
  for (size_t s = 0; s < 3; s++) {
    Workload shard_w = CounterWorkload(60, "s" + std::to_string(ids[s]) + "_");
    spills.push_back(ServeShard(base, shard_w.items, ids[s],
                                /*base_rid=*/1 + 1000 * ids[s],
                                "multi_" + std::to_string(ids[s])));
  }
  std::vector<ShardEpochFiles> shard_files;
  for (const ShardSpill& s : spills) {
    shard_files.push_back({s.trace_path, s.reports_path});
  }

  // The reference: materialize the merged epoch (ascending shard id — the documented
  // deterministic merge order) and audit it fully in memory.
  std::vector<size_t> by_id = {1, 2, 0};  // Positions of ids 1, 2, 3 in `spills`.
  Trace merged_trace;
  Reports merged_reports;
  for (size_t pos : by_id) {
    Result<Trace> t = ReadTraceFile(spills[pos].trace_path);
    Result<Reports> r = ReadReportsFile(spills[pos].reports_path);
    ASSERT_TRUE(t.ok() && r.ok());
    merged_trace.events.insert(merged_trace.events.end(), t.value().events.begin(),
                               t.value().events.end());
    ASSERT_TRUE(AppendReports(&merged_reports, r.value()).ok());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    AuditSession in_memory =
        AuditSession::Open(&base.app, StreamOptions(threads, 0), base.initial);
    AuditResult ref = in_memory.FeedEpoch(merged_trace, merged_reports);
    ASSERT_TRUE(ref.accepted) << ref.reason;

    AuditSession sharded =
        AuditSession::Open(&base.app, StreamOptions(threads, kBudget), base.initial);
    Result<AuditResult> got = sharded.FeedShardedEpoch(shard_files);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
              InitialStateFingerprint(ref.final_state))
        << threads << " threads";
  }
}

// At one thread the phase breakdown covers disjoint stretches of the calling thread, so it
// can never exceed the call's wall time: on the in-memory, streamed, and sharded paths.
TEST(ShardedAudit, PhasesAreDisjointAndFitInTheCallAtOneThread) {
  auto spans = [](const AuditResult& r, obs::Phase p) {
    return r.stats.phases.spans[static_cast<int>(p)];
  };
  auto check = [&](const AuditResult& r, double wall, uint64_t pass1_spans,
                   uint64_t merge_spans) {
    ASSERT_TRUE(r.accepted) << r.reason;
    EXPECT_LE(r.stats.phases.total_seconds(), wall);
    EXPECT_GT(r.stats.phases.total_seconds(), 0.0);
    EXPECT_EQ(spans(r, obs::Phase::kPass1Skeleton), pass1_spans);
    EXPECT_EQ(spans(r, obs::Phase::kShardMerge), merge_spans);
    EXPECT_EQ(spans(r, obs::Phase::kProcOpReports), 1u);
    EXPECT_EQ(spans(r, obs::Phase::kDbRedo), 1u);
    EXPECT_EQ(spans(r, obs::Phase::kPass3Compare), 1u);
    EXPECT_GT(spans(r, obs::Phase::kPass2Execute), 0u);
    EXPECT_EQ(spans(r, obs::Phase::kDbQuery), r.stats.db_selects_issued);
  };

  SpilledEpoch e = SpillCounterEpoch("phase_sum", 120);
  {
    Result<Trace> trace = ReadTraceFile(e.trace_path);
    Result<Reports> reports = ReadReportsFile(e.reports_path);
    ASSERT_TRUE(trace.ok() && reports.ok());
    AuditSession session = AuditSession::Open(&e.w.app, StreamOptions(1, 0), e.initial);
    WallTimer wall;
    AuditResult r = session.FeedEpoch(trace.value(), reports.value());
    check(r, wall.Seconds(), 0, 0);
  }
  {
    AuditSession session =
        AuditSession::Open(&e.w.app, StreamOptions(1, kBudget), e.initial);
    WallTimer wall;
    Result<AuditResult> r = session.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
    const double seconds = wall.Seconds();
    ASSERT_TRUE(r.ok()) << r.error();
    check(r.value(), seconds, 1, 0);
  }
  {
    Workload base = CounterWorkload(0);
    std::vector<ShardEpochFiles> shard_files;
    for (uint32_t id : {1u, 2u, 3u}) {
      Workload shard_w = CounterWorkload(40, "s" + std::to_string(id) + "_");
      ShardSpill spill = ServeShard(base, shard_w.items, id, /*base_rid=*/1 + 1000 * id,
                                    "phase_sum_" + std::to_string(id));
      shard_files.push_back({spill.trace_path, spill.reports_path});
    }
    AuditSession session =
        AuditSession::Open(&base.app, StreamOptions(1, kBudget), base.initial);
    WallTimer wall;
    Result<AuditResult> r = session.FeedShardedEpoch(shard_files);
    const double seconds = wall.Seconds();
    ASSERT_TRUE(r.ok()) << r.error();
    check(r.value(), seconds, 3, 1);
  }
}

TEST(ShardedAudit, EmptyShardMergesCleanly) {
  SpilledEpoch e = SpillCounterEpoch("with_empty", 45);
  // Re-stamp the served shard as shard 1; shard 2 saw no traffic this epoch.
  Result<Trace> t = ReadTraceFile(e.trace_path);
  ASSERT_TRUE(t.ok());
  std::string shard1_trace = ::testing::TempDir() + "/shard_empty_t1.bin";
  ASSERT_TRUE(WriteTraceFile(shard1_trace, t.value(), /*shard_id=*/1).ok());
  ShardSpill empty = ServeShard(e.w, {}, /*shard_id=*/2, /*base_rid=*/5000, "empty2");

  AuditSession sharded = AuditSession::Open(&e.w.app, StreamOptions(2, 0), e.initial);
  Result<AuditResult> got = sharded.FeedShardedEpoch(std::vector<ShardEpochFiles>{
      {shard1_trace, e.reports_path}, {empty.trace_path, empty.reports_path}});
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_TRUE(got.value().accepted) << got.value().reason;

  AuditSession alone = AuditSession::Open(&e.w.app, StreamOptions(2, 0), e.initial);
  Result<AuditResult> ref = FeedDecodedFiles(&alone, e.trace_path, e.reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted);
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(ref.value().final_state));
}

TEST(ShardedAudit, DuplicateRidAcrossShardsIsADeterministicMergeError) {
  Workload w = CounterWorkload(0);
  Workload w1 = CounterWorkload(30, "a_");
  Workload w2 = CounterWorkload(30, "b_");
  // Both shards hand out rids 1..30: disjoint traffic sliced wrong.
  ShardSpill s1 = ServeShard(w, w1.items, 1, /*base_rid=*/1, "dup1");
  ShardSpill s2 = ServeShard(w, w2.items, 2, /*base_rid=*/1, "dup2");

  std::string first_error;
  // Deterministic: same error whichever order the caller lists the shards in (merge
  // order is by stamped shard id, not argument order), and stable across repeats.
  for (const auto& order : {std::vector<ShardSpill>{s1, s2}, std::vector<ShardSpill>{s2, s1}}) {
    AuditSession session = AuditSession::Open(&w.app, StreamOptions(2, 0), w.initial);
    std::vector<ShardEpochFiles> files;
    for (const ShardSpill& s : order) {
      files.push_back({s.trace_path, s.reports_path});
    }
    Result<AuditResult> got = session.FeedShardedEpoch(files);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().find("appears in more than one shard"), std::string::npos)
        << got.error();
    if (first_error.empty()) {
      first_error = got.error();
    } else {
      EXPECT_EQ(got.error(), first_error);
    }
    EXPECT_EQ(session.epochs_fed(), 0u);  // A merge error consumes no epoch.
  }
}

TEST(ShardedAudit, ManifestDrivesTheMergeAndChecksStampedIds) {
  Workload base = CounterWorkload(0);
  std::vector<ShardSpill> spills;
  for (uint32_t id : {1u, 2u, 3u}) {
    Workload shard_w = CounterWorkload(40, "m" + std::to_string(id) + "_");
    spills.push_back(
        ServeShard(base, shard_w.items, id, 1 + 1000 * id, "man_" + std::to_string(id)));
  }
  ShardManifest manifest;
  manifest.epoch = 7;
  for (uint32_t id : {1u, 2u, 3u}) {
    const ShardSpill& s = spills[id - 1];
    // Relative paths resolve against the manifest's directory.
    manifest.shards.push_back({id, s.trace_path.substr(s.trace_path.rfind('/') + 1),
                               s.reports_path.substr(s.reports_path.rfind('/') + 1)});
  }
  std::string manifest_path = ::testing::TempDir() + "/shard_manifest.bin";
  ASSERT_TRUE(WriteShardManifestFile(manifest_path, manifest).ok());

  AuditSession session = AuditSession::Open(&base.app, StreamOptions(2, kBudget), base.initial);
  Result<AuditResult> got = session.FeedShardedEpoch(manifest_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_TRUE(got.value().accepted) << got.value().reason;

  // A manifest that misattributes a stamped shard is rejected before any audit work.
  manifest.shards[0].shard_id = 9;
  std::string bad_path = ::testing::TempDir() + "/shard_manifest_bad.bin";
  ASSERT_TRUE(WriteShardManifestFile(bad_path, manifest).ok());
  AuditSession session2 = AuditSession::Open(&base.app, StreamOptions(2, 0), base.initial);
  Result<AuditResult> bad = session2.FeedShardedEpoch(bad_path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("stamped shard"), std::string::npos) << bad.error();
}

TEST(StreamAudit, PointReadsReproducePayloadsExactly) {
  Trace t;
  TraceEvent req;
  req.kind = TraceEvent::Kind::kRequest;
  req.rid = 42;
  req.script = "/counter/hit";
  req.params = {{"key", "k"}, {"who", std::string("w\0x\xff", 4)}};
  t.events.push_back(req);
  TraceEvent resp;
  resp.kind = TraceEvent::Kind::kResponse;
  resp.rid = 42;
  resp.body = std::string("body\0with\xff" "binary", 16);
  t.events.push_back(resp);
  std::string path = ::testing::TempDir() + "/stream_point_reads.bin";
  ASSERT_TRUE(WriteTraceFile(path, t, /*shard_id=*/4).ok());

  StreamTraceSet set;
  Result<uint32_t> shard = set.AppendFile(path);
  ASSERT_TRUE(shard.ok()) << shard.error();
  EXPECT_EQ(shard.value(), 4u);
  ASSERT_EQ(set.num_events(), 2u);
  // The skeleton kept structure, not payloads.
  EXPECT_EQ(set.skeleton().events[0].script, "/counter/hit");
  EXPECT_TRUE(set.skeleton().events[0].params.empty());
  EXPECT_TRUE(set.skeleton().events[1].body.empty());

  FileTraceChunkLoader loader(&set);
  Trace* skeleton = set.mutable_skeleton();
  ASSERT_TRUE(loader.Load(set, 0, &skeleton->events[0]).ok());
  ASSERT_TRUE(loader.Load(set, 1, &skeleton->events[1]).ok());
  EXPECT_EQ(skeleton->events[0].params, req.params);
  EXPECT_EQ(skeleton->events[1].body, resp.body);
  loader.Evict(set, 0, &skeleton->events[0]);
  loader.Evict(set, 1, &skeleton->events[1]);
  EXPECT_TRUE(skeleton->events[0].params.empty());
  EXPECT_TRUE(skeleton->events[1].body.empty());
}

TEST(StreamAudit, BudgetResolutionPrefersOptionsOverEnv) {
  AuditOptions options;
  options.max_resident_bytes = 12345;
  Result<uint64_t> b = ResolveAuditBudget(options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 12345u);
  options.max_resident_bytes = 0;
  ASSERT_EQ(setenv("OROCHI_AUDIT_BUDGET", "777", 1), 0);
  b = ResolveAuditBudget(options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 777u);
  ASSERT_EQ(unsetenv("OROCHI_AUDIT_BUDGET"), 0);
  b = ResolveAuditBudget(options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 0u);
}

// A set but malformed OROCHI_AUDIT_BUDGET / OROCHI_AUDIT_THREADS used to silently fall
// back (atoll) — unbounded memory or a surprise thread count. Both are hard errors now.
TEST(EnvConfig, MalformedBudgetEnvIsAHardErrorNotASilentFallback) {
  AuditOptions options;  // max_resident_bytes = 0 ⇒ the env variable decides.
  for (const char* bad : {"12abc", "abc", "-1", "+5", " 8", "8 ", "", "99999999999999999999"}) {
    ASSERT_EQ(setenv("OROCHI_AUDIT_BUDGET", bad, 1), 0);
    Result<uint64_t> b = ResolveAuditBudget(options);
    ASSERT_FALSE(b.ok()) << "'" << bad << "' should not parse";
    EXPECT_NE(b.error().find("OROCHI_AUDIT_BUDGET"), std::string::npos) << b.error();
  }

  // A streamed feed surfaces the config error as a hard error Result, before any file is
  // read and without consuming an epoch.
  ASSERT_EQ(setenv("OROCHI_AUDIT_BUDGET", "4k", 1), 0);
  SpilledEpoch e = SpillCounterEpoch("env_budget", 20);
  AuditOptions session_options;
  session_options.num_threads = 1;
  AuditSession session = AuditSession::Open(&e.w.app, session_options, e.initial);
  Result<AuditResult> r = session.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("OROCHI_AUDIT_BUDGET"), std::string::npos) << r.error();
  EXPECT_EQ(session.epochs_fed(), 0u);

  // Options still shadow the environment entirely, even a malformed one.
  session_options.max_resident_bytes = kBudget;
  AuditSession shadowed = AuditSession::Open(&e.w.app, session_options, e.initial);
  Result<AuditResult> ok = shadowed.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_TRUE(ok.value().accepted);
  ASSERT_EQ(unsetenv("OROCHI_AUDIT_BUDGET"), 0);
}

TEST(EnvConfig, MalformedThreadsEnvIsAHardErrorNotASilentFallback) {
  AuditOptions options;  // num_threads = 0 ⇒ the env variable decides.
  for (const char* bad : {"two", "2x", "-2", " 2", ""}) {
    ASSERT_EQ(setenv("OROCHI_AUDIT_THREADS", bad, 1), 0);
    Result<size_t> t = ResolveAuditThreads(options);
    ASSERT_FALSE(t.ok()) << "'" << bad << "' should not parse";
    EXPECT_NE(t.error().find("OROCHI_AUDIT_THREADS"), std::string::npos) << t.error();
  }
  // An explicit 0 means auto, like AuditOptions::num_threads == 0.
  ASSERT_EQ(setenv("OROCHI_AUDIT_THREADS", "0", 1), 0);
  Result<size_t> zero = ResolveAuditThreads(options);
  ASSERT_TRUE(zero.ok());
  EXPECT_GE(zero.value(), 1u);

  ASSERT_EQ(setenv("OROCHI_AUDIT_THREADS", "8x", 1), 0);
  SpilledEpoch e = SpillCounterEpoch("env_threads", 20);
  // File-based feeds: a hard error Result before any file is read, no epoch consumed.
  AuditSession session = AuditSession::Open(&e.w.app, options, e.initial);
  Result<AuditResult> rs = session.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.error().find("OROCHI_AUDIT_THREADS"), std::string::npos) << rs.error();
  EXPECT_EQ(session.epochs_fed(), 0u);

  // FeedEpoch has no error channel: the config error reports as a rejection whose reason
  // names the variable, and the epoch is not consumed.
  Result<Trace> trace = ReadTraceFile(e.trace_path);
  Result<Reports> reports = ReadReportsFile(e.reports_path);
  ASSERT_TRUE(trace.ok() && reports.ok());
  AuditResult fed = session.FeedEpoch(trace.value(), reports.value());
  EXPECT_FALSE(fed.accepted);
  EXPECT_NE(fed.reason.find("OROCHI_AUDIT_THREADS"), std::string::npos) << fed.reason;
  EXPECT_EQ(session.epochs_fed(), 0u);

  // Explicit options shadow the environment entirely.
  AuditOptions pinned;
  pinned.num_threads = 2;
  AuditSession shadowed = AuditSession::Open(&e.w.app, pinned, e.initial);
  Result<AuditResult> ok = shadowed.FeedEpochFilesStreamed(e.trace_path, e.reports_path);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_TRUE(ok.value().accepted);
  ASSERT_EQ(unsetenv("OROCHI_AUDIT_THREADS"), 0);
}

}  // namespace
}  // namespace orochi

// bench_ledger: the repository's one performance ledger. Every later performance claim
// cites a number this program prints.
//
//   bench_ledger --workload=<name> --seed=<u64> [--seconds=<n>] [--trace=<dir>]
//                [--work-dir=<dir>]
//
// One run measures one workload in two steps:
//   1. Set-up (this process, three times). Generate the workload from --seed and serve it
//      as 10 chained epochs through a recording ServerCore, one request at a time, so a
//      seed always spills the same bytes. Each epoch is spilled with Collector::Flush +
//      ServerCore::ExportReports, and epoch 2 also gets a tampered copy (one response body
//      forged). The three set-ups must spill identical bytes.
//   2. Verifier: child processes of this binary in --verify mode, so serving's heap is not
//      in the verifier's peak RSS. File workloads use three processes in turn, each with an
//      untimed warm-up pass and then timed passes for a third of --seconds, so no single
//      process's memory layout or thread placement decides the result. A pass opens a
//      fresh AuditSession at the workload's initial state and feeds the 10 epochs in order
//      from their spill files; before epoch 2 it feeds the tampered copy (untimed, must
//      REJECT). Every chained final-state fingerprint must equal the first warm-up pass's.
//      forum-live uses one process: after the file warm-up pass and one untimed live pass,
//      it streams the epochs over loopback TCP into an in-process AuditService on an open
//      loop (slot s due at t0 + s × 300 ms) for --seconds.
//
// Machine speed. A fixed calibration kernel (kit/calibration.h) runs between timed units
// (set-up epochs, audited epochs, live slots) and every end-to-end time is reported at
// the kernel's reference speed: raw × kReferenceKernelS / kernel time. The raw values are
// in the record too, under "<name>.raw". Spill and spool writes skip fsync
// (kit/volatile_env.h), as they would on tmpfs.
//
// --trace=<dir> replaces the end-to-end passes by the per-layer run (one verifier
// process): untraced and traced passes alternate (the difference is trace.overhead_pct),
// the chain is replayed once through the engine's public steps with a timing task gate,
// the paper's Figure 8 yardsticks are measured, one instrumented live pass runs, and every
// span lands in <dir>/<workload>.trace.json (Chrome-trace JSON).
//
// stdout: one JSON object {workload, seed, meta, metrics:{name:{value,unit,n,q1,q3}},
// attempted, failed, ok}; stderr: the same metrics as a table. Exit code 1 when any
// correctness gate failed, 2 on a usage or configuration error.
//
// Fixed configuration (AuditOptions set explicitly): 3 audit threads, max_group_size
// 3000, prefetch depth 2, budget per workload. The OROCHI_* variables that would change
// that configuration make the program refuse to run.
#include <spawn.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger/kit/calibration.h"
#include "ledger/kit/registry_diff.h"
#include "ledger/kit/span_recorder.h"
#include "ledger/kit/summary.h"
#include "ledger/kit/timing_hooks.h"
#include "ledger/kit/volatile_env.h"
#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/timer.h"
#include "src/core/audit_plan.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/tamper.h"
#include "src/service/audit_service.h"
#include "src/service/collector_client.h"
#include "src/stream/stream_audit.h"
#include "src/workload/workloads.h"

extern char** environ;

namespace orochi {
namespace ledger {
namespace {

namespace fs = std::filesystem;

constexpr int kEpochs = 10;
constexpr int kTamperIndex = 1;  // Epoch 2.
constexpr int kSetupReps = 3;
constexpr int kVerifierProcs = 3;
constexpr int kMinFilePasses = 2;  // Per verifier process.
constexpr int kMinLivePasses = 1;
constexpr size_t kAuditThreads = 3;  // nproc - 1 on a 4-core box: prefetch I/O takes one.
constexpr size_t kMaxGroupSize = 3000;
constexpr size_t kPrefetchDepth = 2;
constexpr double kLiveIntervalS = 0.3;

struct WorkloadSpec {
  const char* name;
  uint64_t budget_bytes;   // 0 = unlimited.
  double live_interval_s;  // < 0: file workload; >= 0: open-loop live ingest.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"forum-chain", 0, -1},
    {"wiki-chain", 0, -1},
    {"conf-paged", 256 * 1024, -1},
    {"forum-live", 0, kLiveIntervalS},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kWorkloads) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

Workload MakeLedgerWorkload(const std::string& name, uint64_t seed) {
  if (name == "wiki-chain") {
    WikiConfig c;
    c.num_pages = 200;
    c.num_users = 100;
    c.num_requests = 20000;
    c.seed = seed;
    return MakeWikiWorkload(c);
  }
  if (name == "conf-paged") {  // BenchConf()'s shape scaled to ~10k requests.
    ConfConfig c;
    c.num_papers = 160;
    c.num_reviewers = 30;
    c.reviews_target = 480;
    c.review_length = 1200;
    c.max_updates_per_paper = 20;
    c.views_per_reviewer = 240;
    c.seed = seed;
    return MakeConfWorkload(c);
  }
  ForumConfig c;  // forum-chain and forum-live serve the same epochs.
  c.num_topics = 8;
  c.num_users = 83;
  c.num_requests = 10000;
  c.seed = seed;
  return MakeForumWorkload(c);
}

AuditOptions LedgerAuditOptions(const WorkloadSpec& spec) {
  AuditOptions o;
  o.num_threads = kAuditThreads;
  o.max_group_size = kMaxGroupSize;
  o.prefetch_depth = kPrefetchDepth;
  o.max_resident_bytes = spec.budget_bytes;
  return o;
}

// [begin, end) of epoch e's requests among n.
size_t EpochBegin(size_t n, int e) { return n * static_cast<size_t>(e) / kEpochs; }

struct Layout {
  std::string dir;
  std::string Trace(int e) const { return dir + "/epoch" + std::to_string(e + 1) + ".trace"; }
  std::string Reports(int e) const {
    return dir + "/epoch" + std::to_string(e + 1) + ".reports";
  }
  std::string Tampered() const {
    return dir + "/epoch" + std::to_string(kTamperIndex + 1) + ".tampered.trace";
  }
  std::string VerifierOut(int proc) const {
    return dir + "/verifier" + std::to_string(proc) + ".out";
  }
};

// Correctness gates: each expectation is one attempt; a false one is a failure.
struct Gates {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    attempted++;
    if (!ok) {
      failed++;
      std::fprintf(stderr, "ledger: FAILED %s\n", what.c_str());
    }
  }
};

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

uint64_t ChainHash(const InitialState& state) { return FnvHash(InitialStateFingerprint(state)); }

std::string Describe(const Result<AuditResult>& r) {
  if (!r.ok()) {
    return "error: " + r.error();
  }
  return r.value().accepted ? "ACCEPT" : "REJECT: " + r.value().reason;
}

Result<uint32_t> FileCrc(const std::string& path, uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Result<uint32_t>::Error("cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  *size = bytes.size();
  return Crc32c(bytes);
}

const char* FsTypeName(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return "other";
  }
}

// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss: Linux carries
// that across execve, so a spawned verifier would inherit the serving parent's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

// Every spill and spool write of the run goes through this environment.
VolatileEnv* SpillEnv() {
  static VolatileEnv* env = new VolatileEnv();
  return env;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

// ---------------------------------------------------------------------------------------
// The record: named sample series, meta, gates. Verifier processes write theirs as text;
// the parent appends them to its own and summarizes every series into one metric (its
// median; a latency series into .p50 and .p90).

struct Series {
  std::string unit;
  bool latency = false;
  std::vector<double> values;
};

struct Record {
  std::map<std::string, Series> series;
  std::map<std::string, std::string> meta;  // Values are JSON literals.
  Gates gates;

  void Add(const std::string& name, const std::string& unit, double value) {
    Series& s = series[name];
    s.unit = unit;
    s.values.push_back(value);
  }
  void AddLatencies(const std::string& name, const std::vector<double>& values) {
    Series& s = series[name];
    s.unit = "s";
    s.latency = true;
    s.values.insert(s.values.end(), values.begin(), values.end());
  }
  void MetaString(const std::string& k, const std::string& v) { meta[k] = "\"" + v + "\""; }
  void MetaNumber(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    meta[k] = buf;
  }

  // One line per item; names and units never contain spaces.
  bool WriteText(const std::string& path) const {
    std::ofstream out(path);
    char buf[40];
    for (const auto& [name, s] : series) {
      out << "series " << name << " " << s.unit << " " << (s.latency ? 1 : 0);
      for (double v : s.values) {
        std::snprintf(buf, sizeof(buf), " %.17g", v);
        out << buf;
      }
      out << "\n";
    }
    for (const auto& [k, v] : meta) {
      out << "meta " << k << " " << v << "\n";
    }
    out << "gates " << gates.attempted << " " << gates.failed << "\n";
    return static_cast<bool>(out);
  }

  // Appends a verifier's record. A meta key both sides carry must agree (every verifier
  // process must reach the same chain fingerprint).
  bool ReadText(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    bool complete = false;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string kind;
      ls >> kind;
      if (kind == "series") {
        std::string name;
        int latency = 0;
        ls >> name;
        Series& s = series[name];
        ls >> s.unit >> latency;
        s.latency = latency != 0;
        double v = 0;
        while (ls >> v) {
          s.values.push_back(v);
        }
      } else if (kind == "meta") {
        std::string name, value;
        ls >> name >> std::ws;
        std::getline(ls, value);
        auto it = meta.find(name);
        gates.Expect(it == meta.end() || it->second == value,
                     "verifier processes disagree on " + name);
        meta[name] = value;
      } else if (kind == "gates") {
        uint64_t attempted = 0, failed = 0;
        ls >> attempted >> failed;
        gates.attempted += attempted;
        gates.failed += failed;
        complete = true;
      }
    }
    return complete;
  }

  std::map<std::string, Metric> Metrics() const {
    std::map<std::string, Metric> out;
    for (const auto& [name, s] : series) {
      if (s.latency) {
        out[name + ".p50"] = FromSamples(s.values, 0.5, s.unit);
        out[name + ".p90"] = FromSamples(s.values, 0.9, s.unit);
      } else {
        out[name] = FromSamples(s.values, 0.5, s.unit);
      }
    }
    return out;
  }

  void Print(const std::string& workload, uint64_t seed) const {
    const bool ok = gates.failed == 0 && gates.attempted > 0;
    const std::map<std::string, Metric> metrics = Metrics();
    std::string json = "{\"workload\": \"" + workload + "\", \"seed\": " + std::to_string(seed) +
                       ", \"meta\": {";
    bool first = true;
    for (const auto& [k, v] : meta) {
      json += (first ? "\"" : ", \"") + k + "\": " + v;
      first = false;
    }
    json += "}, \"metrics\": {";
    first = true;
    char buf[512];
    for (const auto& [name, m] : metrics) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu, \"q1\": %.17g, "
                    "\"q3\": %.17g}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit.c_str(), m.n, m.q1, m.q3);
      json += buf;
      first = false;
    }
    json += "}, \"attempted\": " + std::to_string(gates.attempted) +
            ", \"failed\": " + std::to_string(gates.failed) + ", \"ok\": " +
            (ok ? "true" : "false") + "}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);

    std::fprintf(stderr, "\n%s seed=%" PRIu64 "  %s (%" PRIu64 " checks, %" PRIu64 " failed)\n",
                 workload.c_str(), seed, ok ? "OK" : "FAILED", gates.attempted, gates.failed);
    std::fprintf(stderr, "  %-40s %16s %-8s %6s %16s %16s\n", "metric", "value", "unit", "n",
                 "q1", "q3");
    for (const auto& [name, m] : metrics) {
      std::fprintf(stderr, "  %-40s %16.6g %-8s %6zu %16.6g %16.6g\n", name.c_str(), m.value,
                   m.unit.c_str(), m.n, m.q1, m.q3);
    }
  }
};

// ---------------------------------------------------------------------------------------
// Set-up: generate, serve 10 chained epochs with one worker, spill, tamper epoch 2.

// One client with one request in flight, served on the calling thread as the server's one
// worker. The collector records exactly what a one-worker ThreadServer records for a
// client that waits for each response (request, then its response), so the spilled bytes
// cannot depend on thread timing; serving inline also leaves out the per-request thread
// hand-off, whose wake-up latency on a virtual machine is noise, not server cost.
void ServeClosedLoop(ServerCore* core, Collector* collector, const Workload& w, size_t begin,
                     size_t end) {
  for (size_t i = begin; i < end; i++) {
    const RequestId rid = static_cast<RequestId>(i + 1);
    const WorkItem& item = w.items[i];
    collector->RecordRequest(rid, item.script, item.params);
    collector->RecordResponse(rid, core->HandleRequest(rid, item.script, item.params));
  }
}

struct SetupRep {
  double setup_s = 0;  // Calibration runs excluded.
  double generate_s = 0;
  double serve_s = 0;
  double serve_at_reference_s = 0;  // Σ epochs' serve time at the reference speed.
  double spill_s = 0;
  double server_cpu_s = 0;
  std::vector<double> kernel_s;  // Calibration before the first and after every epoch.
  uint64_t requests = 0;
  std::vector<uint32_t> crcs;  // Every spill file, in Layout order.
  uint64_t trace_bytes = 0;
  uint64_t reports_bytes = 0;
};

Status SetupOnce(const std::string& workload, uint64_t seed, const Layout& L, SetupRep* rep) {
  rep->kernel_s.push_back(KernelSeconds());
  WallTimer total;
  double calibrating_s = 0;
  WallTimer gen;
  Workload w = MakeLedgerWorkload(workload, seed);
  rep->generate_s = gen.Seconds();
  rep->requests = w.items.size();
  ServerOptions server_options;
  server_options.record_reports = true;
  server_options.io_env = SpillEnv();
  ServerCore core(&w.app, w.initial, server_options);
  Collector collector(/*shard_id=*/0, SpillEnv());
  Rng rng(seed);
  for (int e = 0; e < kEpochs; e++) {
    const size_t begin = EpochBegin(w.items.size(), e);
    const size_t end = EpochBegin(w.items.size(), e + 1);
    WallTimer serve;
    ServeClosedLoop(&core, &collector, w, begin, end);
    const double serve_s = serve.Seconds();
    WallTimer calibrating;
    rep->kernel_s.push_back(KernelSeconds());
    calibrating_s += calibrating.Seconds();
    rep->serve_s += serve_s;
    rep->serve_at_reference_s +=
        AtReferenceSpeed(serve_s, rep->kernel_s[static_cast<size_t>(e)], rep->kernel_s.back());
    if (e == kTamperIndex) {
      // The victim is one of this epoch's requests, picked by the seed.
      const RequestId victim = static_cast<RequestId>(
          begin + 1 +
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(end - begin) - 1)));
      Trace tampered = collector.trace();
      if (!TamperResponseBody(&tampered, victim, "<html>forged by the ledger</html>")) {
        return Status::Error("tamper victim has no response");
      }
      if (Status st = WriteTraceFile(L.Tampered(), tampered, 0, SpillEnv()); !st.ok()) {
        return st;
      }
    }
    WallTimer spill;
    if (Status st = collector.Flush(L.Trace(e)); !st.ok()) {
      return st;
    }
    if (Status st = core.ExportReports(L.Reports(e)); !st.ok()) {
      return st;
    }
    rep->spill_s += spill.Seconds();
  }
  rep->server_cpu_s = core.TotalCpuSeconds();
  rep->setup_s = total.Seconds() - calibrating_s;

  std::vector<std::string> files;
  for (int e = 0; e < kEpochs; e++) {
    files.push_back(L.Trace(e));
    files.push_back(L.Reports(e));
  }
  files.push_back(L.Tampered());
  for (size_t i = 0; i < files.size(); i++) {
    uint64_t size = 0;
    Result<uint32_t> crc = FileCrc(files[i], &size);
    if (!crc.ok()) {
      return Status::Error(crc.error());
    }
    rep->crcs.push_back(crc.value());
    if (i + 1 < files.size()) {
      (i % 2 == 0 ? rep->trace_bytes : rep->reports_bytes) += size;
    }
  }
  return Status::Ok();
}

// Server CPU of the Figure 8 baseline: the same requests served with report recording off.
double PlainServeCpuSeconds(const std::string& workload, uint64_t seed) {
  Workload w = MakeLedgerWorkload(workload, seed);
  ServerOptions options;
  options.record_reports = false;
  ServerCore core(&w.app, w.initial, options);
  Collector collector;
  ServeClosedLoop(&core, &collector, w, 0, w.items.size());
  return core.TotalCpuSeconds();
}

// ---------------------------------------------------------------------------------------
// Verifier passes (child process).

// Stream-layer readings of one traced file pass.
struct StreamReadings {
  SpanRecorder* recorder = nullptr;  // Receives the pass's spans.
  LoadTally trace_tally;
  LoadTally reports_tally;
  uint64_t budget_peak_bytes = 0;
  uint64_t budget_largest_admission_bytes = 0;
  PrefetchStats prefetch;
  uint64_t pass1_transient_peak_bytes = 0;
  double reads_issued = 0;
  double reads_coalesced = 0;
  double budget_waits = 0;          // Blocking ChunkBudget::Acquire calls (Prepare, pass 3).
  double oversized_admissions = 0;  // Chunks larger than the budget, admitted alone.
  double gate_wait_s = 0;           // Pass-2 worker time blocked in the chunk gate.
};

struct FilePassResult {
  std::vector<double> epoch_s;  // Pristine epochs, spill files -> verdict.
  double wall_s = 0;            // Σ epoch_s.
  uint64_t chain = 0;           // Hash of the chained final state.
};

// One pass over the epoch chain from spill files. `traced` non-null: the production
// loaders are wrapped in timing decorators and the stream counters are collected.
// `kernel_s` non-null: the calibration kernel runs before the first epoch and after every
// epoch (kEpochs + 1 times), outside the timed feeds.
FilePassResult RunFilePass(const Workload& w, const WorkloadSpec& spec, const Layout& L,
                           StreamReadings* traced, Gates* gates,
                           std::vector<double>* kernel_s = nullptr) {
  FilePassResult out;
  AuditSession session = AuditSession::Open(&w.app, LedgerAuditOptions(spec), w.initial);
  ChunkBudget budget(spec.budget_bytes);
  SpanScope scope;
  scope.recorder = traced != nullptr ? traced->recorder : nullptr;
  if (kernel_s != nullptr) {
    kernel_s->push_back(KernelSeconds());
  }
  for (int e = 0; e < kEpochs; e++) {
    if (e == kTamperIndex) {
      Result<AuditResult> probe = session.FeedEpochFilesStreamed(L.Tampered(), L.Reports(e));
      gates->Expect(probe.ok() && !probe.value().accepted,
                    "tampered epoch 2 must REJECT (" + Describe(probe) + ")");
    }
    Result<AuditResult> r = Result<AuditResult>::Error("not run");
    if (traced == nullptr) {
      WallTimer t;
      r = session.FeedEpochFilesStreamed(L.Trace(e), L.Reports(e));
      out.epoch_s.push_back(t.Seconds());
    } else {
      TimingTraceLoader trace_loader(&scope, &traced->trace_tally);
      TimingReportsLoader reports_loader(&scope, &traced->reports_tally);
      PrefetchStats prefetch;
      StreamAuditHooks hooks;
      hooks.loader = &trace_loader;
      hooks.reports_loader = &reports_loader;
      hooks.budget = &budget;
      hooks.prefetch_stats = &prefetch;
      const RegistrySnapshot before = RegistrySnapshot::Take();
      WallTimer t;
      {
        ScopedSpan span(scope.recorder, "stream.epoch", 0, e);
        scope.parent = span.id();
        scope.epoch = e;
        r = session.FeedEpochFilesStreamed(L.Trace(e), L.Reports(e), &hooks);
      }
      out.epoch_s.push_back(t.Seconds());
      const RegistrySnapshot after = RegistrySnapshot::Take();
      traced->reads_issued += after.DiffSince(before, "orochi_chunk_reads_issued_total");
      traced->reads_coalesced += after.DiffSince(before, "orochi_chunk_reads_coalesced_total");
      traced->budget_waits += after.DiffSince(before, "orochi_budget_waits_total");
      traced->oversized_admissions +=
          after.DiffSince(before, "orochi_budget_oversized_admissions_total");
      // With read-ahead on, a worker short of budget waits in the prefetcher, which no
      // budget counter sees; the phase counter for gate time covers both waits and preads.
      traced->gate_wait_s +=
          after.DiffSince(before, "orochi_phase_pass2_io_wait_micros_total") * 1e-6;
      traced->prefetch.issued += prefetch.issued;
      traced->prefetch.hits += prefetch.hits;
      traced->prefetch.misses += prefetch.misses;
      traced->prefetch.revoked += prefetch.revoked;
      traced->prefetch.bytes += prefetch.bytes;
      if (r.ok()) {
        traced->pass1_transient_peak_bytes = std::max(
            traced->pass1_transient_peak_bytes, r.value().stats.pass1_transient_peak_bytes);
      }
    }
    out.wall_s += out.epoch_s.back();
    if (kernel_s != nullptr) {
      kernel_s->push_back(KernelSeconds());
    }
    gates->Expect(r.ok() && r.value().accepted,
                  "epoch " + std::to_string(e + 1) + " must ACCEPT (" + Describe(r) + ")");
  }
  if (traced != nullptr) {
    traced->budget_peak_bytes = budget.peak_bytes();
    traced->budget_largest_admission_bytes = budget.largest_acquire_bytes();
  }
  out.chain = ChainHash(session.state());
  return out;
}

// The epochs held in memory for CollectorClient, which streams a Collector's trace.
struct LiveEpochs {
  std::vector<Trace> traces;
  std::vector<Reports> reports;
  Trace tampered;
};

Status LoadLiveEpochs(const Layout& L, LiveEpochs* out) {
  for (int e = 0; e < kEpochs; e++) {
    Result<Trace> t = ReadTraceFile(L.Trace(e));
    Result<Reports> r = ReadReportsFile(L.Reports(e));
    if (!t.ok() || !r.ok()) {
      return Status::Error("cannot load epoch " + std::to_string(e + 1) + " for streaming");
    }
    out->traces.push_back(std::move(t).value());
    out->reports.push_back(std::move(r).value());
  }
  Result<Trace> t = ReadTraceFile(L.Tampered());
  if (!t.ok()) {
    return Status::Error(t.error());
  }
  out->tampered = std::move(t).value();
  return Status::Ok();
}

struct LivePassResult {
  std::vector<double> latency_s;  // Pristine epochs: scheduled send -> verdict.
  std::vector<double> latency_at_reference_s;  // The same at reference speed (calibrated).
  std::vector<double> kernel_s;  // Calibration before every slot and after the last verdict.
  double max_lateness_s = 0;      // How late the generator started a send.
  double stream_s = 0;            // Σ CollectorClient::StreamEpoch.
  double verdict_wait_s = 0;      // Σ seal acknowledged -> verdict.
  ClientStats client;
  ServiceStats service;
  double backpressure_stalls = 0;
  double fsyncs = 0;
};

// How long before a slot is due a calibrated live pass runs the kernel: the previous
// epoch's verdict has long arrived by then, and the kernel is done before the send.
constexpr double kCalibrationLeadS = 0.03;

// One open-loop pass: slot s is due at t0 + s × interval whether or not earlier verdicts
// arrived; slot kTamperIndex carries the tampered epoch 2 (must REJECT), the pristine
// epochs fill the other slots in order. Spans go to `rec`. With `calibrate`, the kernel
// runs shortly before every slot and once after the last verdict, and each latency is
// also reported at reference speed, scaled by the runs before and after its slot.
LivePassResult RunLivePass(const Workload& w, const WorkloadSpec& spec, const LiveEpochs& epochs,
                           double interval_s, const std::string& spool_dir,
                           uint64_t reference_chain, bool calibrate, SpanRecorder* rec,
                           Gates* gates) {
  LivePassResult out;
  struct Slot {
    const Trace* trace;
    const Reports* reports;
    int epoch;  // -1 = the tamper probe.
  };
  std::vector<Slot> slots;
  for (int e = 0; e < kEpochs; e++) {
    if (e == kTamperIndex) {
      slots.push_back({&epochs.tampered, &epochs.reports[static_cast<size_t>(e)], -1});
    }
    slots.push_back({&epochs.traces[static_cast<size_t>(e)],
                     &epochs.reports[static_cast<size_t>(e)], e});
  }
  const size_t n = slots.size();
  std::error_code ec;
  fs::create_directories(spool_dir, ec);
  ServiceOptions service_options;
  service_options.spool_dir = spool_dir;
  service_options.env = SpillEnv();
  AuditService service(&w.app, LedgerAuditOptions(spec), w.initial, service_options);
  if (Status st = service.Start(); !st.ok()) {
    gates->Expect(false, "audit service start: " + st.error());
    return out;
  }
  const RegistrySnapshot before = RegistrySnapshot::Take();
  const uint64_t syncs_before = SpillEnv()->syncs();
  CollectorClient client(service.address());
  std::vector<double> due(n), sent(n), verdict_at(n);
  std::vector<double>& kernel_s = out.kernel_s;
  std::vector<Result<AuditResult>> verdicts(n, Result<AuditResult>::Error("no verdict"));
  const double t0 = rec->Now() + 0.01;
  for (size_t s = 0; s < n; s++) {
    due[s] = t0 + static_cast<double>(s) * interval_s;
  }
  std::thread waiter([&] {
    for (size_t s = 0; s < n; s++) {
      verdicts[s] = service.WaitEpochVerdict(s + 1);
      verdict_at[s] = rec->Now();
    }
  });
  for (size_t s = 0; s < n; s++) {
    Collector collector(/*shard_id=*/1);
    collector.Restore(Trace(*slots[s].trace));
    auto sleep_until = [&](double t) {
      const double wait = t - rec->Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    };
    if (calibrate) {
      sleep_until(due[s] - kCalibrationLeadS);
      kernel_s.push_back(KernelSeconds());
    }
    sleep_until(due[s]);
    const double start = rec->Now();
    out.max_lateness_s = std::max(out.max_lateness_s, start - due[s]);
    Status st = Status::Ok();
    {
      ScopedSpan span(rec, "net.stream_epoch", 0, slots[s].epoch);
      st = client.StreamEpoch(s + 1, &collector, *slots[s].reports);
    }
    sent[s] = rec->Now();
    out.stream_s += sent[s] - start;
    if (!st.ok()) {
      gates->Expect(false, "stream slot " + std::to_string(s + 1) + ": " + st.error());
      service.Stop();  // Unblocks the waiter.
      break;
    }
  }
  waiter.join();
  if (calibrate) {
    kernel_s.push_back(KernelSeconds());
  }
  service.Stop();
  const RegistrySnapshot after = RegistrySnapshot::Take();
  out.client = client.stats();
  out.service = service.stats();
  out.backpressure_stalls = after.DiffSince(before, "orochi_client_backpressure_stalls_total");
  out.fsyncs = static_cast<double>(SpillEnv()->syncs() - syncs_before);

  for (size_t s = 0; s < n; s++) {
    const Result<AuditResult>& v = verdicts[s];
    if (slots[s].epoch < 0) {
      gates->Expect(v.ok() && !v.value().accepted,
                    "live tampered epoch 2 must REJECT (" + Describe(v) + ")");
      continue;
    }
    gates->Expect(v.ok() && v.value().accepted, "live epoch " +
                                                    std::to_string(slots[s].epoch + 1) +
                                                    " must ACCEPT (" + Describe(v) + ")");
    out.latency_s.push_back(verdict_at[s] - due[s]);
    if (kernel_s.size() > s + 1) {
      out.latency_at_reference_s.push_back(
          AtReferenceSpeed(out.latency_s.back(), kernel_s[s], kernel_s[s + 1]));
    }
    out.verdict_wait_s += verdict_at[s] - sent[s];
    rec->Add("service.verdict_wait", 0, slots[s].epoch, sent[s], verdict_at[s]);
  }
  const Result<AuditResult>& last = verdicts[n - 1];
  gates->Expect(last.ok() && last.value().accepted &&
                    ChainHash(last.value().final_state) == reference_chain,
                "live chain fingerprint must equal the file chain's");
  fs::remove_all(spool_dir, ec);
  return out;
}

// ---------------------------------------------------------------------------------------
// Engine decomposition: the chain replayed through the public steps FeedEpochFiles takes
// (src/core/audit_session.cc), each in its own span.

struct Decomposition {
  AuditStats stats;  // Summed over the epochs.
  std::vector<InitialState> initial;  // Each epoch's starting state.
  uint64_t chain = 0;
};

Decomposition Decompose(const Workload& w, const WorkloadSpec& spec, const Layout& L,
                        SpanRecorder* rec, Gates* gates) {
  Decomposition out;
  const AuditOptions options = LedgerAuditOptions(spec);
  SpanScope scope;
  scope.recorder = rec;
  InitialState state = w.initial;
  for (int e = 0; e < kEpochs; e++) {
    out.initial.push_back(state);
    {
      ScopedSpan pass1(rec, "stream.pass1", 0, e);
      {
        ScopedSpan span(rec, "stream.pass1_trace", pass1.id(), e);
        StreamTraceSet traces;
        gates->Expect(traces.AppendFile(L.Trace(e)).ok(), "pass-1 trace index");
      }
      ScopedSpan span(rec, "stream.pass1_reports", pass1.id(), e);
      StreamReportsSet reports;
      gates->Expect(reports.AppendFile(L.Reports(e)).ok(), "pass-1 reports index");
    }
    ScopedSpan epoch(rec, "core.feed_epoch", 0, e);
    Result<Trace> trace = Result<Trace>::Error("not read");
    Result<Reports> reports = Result<Reports>::Error("not read");
    {
      ScopedSpan span(rec, "objects.decode_trace", epoch.id(), e);
      trace = ReadTraceFile(L.Trace(e));
    }
    {
      ScopedSpan span(rec, "objects.decode_reports", epoch.id(), e);
      reports = ReadReportsFile(L.Reports(e));
    }
    if (!trace.ok() || !reports.ok()) {
      gates->Expect(false, "decode epoch " + std::to_string(e + 1));
      return out;
    }
    InitialState next;
    {
      AuditContext ctx(&trace.value(), &reports.value(), &w.app, &state, options);
      Status prepared = Status::Ok();
      {
        ScopedSpan span(rec, "core.prepare", epoch.id(), e);
        prepared = ctx.Prepare();
      }
      AuditPlan plan;
      {
        ScopedSpan span(rec, "core.plan", epoch.id(), e);
        plan = PlanAuditTasks(&ctx, reports.value(), &w.app, options);
      }
      AuditExecOutcome exec;
      {
        ScopedSpan span(rec, "core.execute", epoch.id(), e);
        scope.parent = span.id();
        scope.epoch = e;
        TimingTaskGate gate(&scope);
        exec = ExecuteAuditPlan(&ctx, &w.app, options, plan, &gate);
      }
      Status compared = Status::Ok();
      {
        ScopedSpan span(rec, "core.compare", epoch.id(), e);
        compared = ctx.CompareOutputs();
      }
      const bool accepted =
          prepared.ok() && exec.fail_order == kNoAuditFailure && compared.ok();
      gates->Expect(accepted, "decomposed epoch " + std::to_string(e + 1) + " must ACCEPT");
      if (!accepted) {
        return out;
      }
      {
        ScopedSpan span(rec, "core.final_state", epoch.id(), e);
        next = ctx.ExtractFinalState();
      }
      out.stats.MergeFrom(ctx.stats());
    }
    state = std::move(next);
  }
  out.chain = ChainHash(state);
  return out;
}

// paper.audit_speedup: CPU seconds of simple re-execution (Auditor::AuditSequential)
// over the grouped audit, both at one thread, summed over the chain.
double PaperAuditSpeedup(const Workload& w, const WorkloadSpec& spec, const Layout& L,
                         const Decomposition& d, Gates* gates) {
  AuditOptions options = LedgerAuditOptions(spec);
  options.num_threads = 1;
  Auditor auditor(&w.app, options);
  double grouped_cpu = 0;
  double sequential_cpu = 0;
  for (size_t e = 0; e < d.initial.size(); e++) {
    Result<Trace> trace = ReadTraceFile(L.Trace(static_cast<int>(e)));
    Result<Reports> reports = ReadReportsFile(L.Reports(static_cast<int>(e)));
    if (!trace.ok() || !reports.ok()) {
      gates->Expect(false, "paper yardstick decode");
      return 0;
    }
    double cpu = ProcessCpuSeconds();
    AuditResult grouped = auditor.Audit(trace.value(), reports.value(), d.initial[e]);
    grouped_cpu += ProcessCpuSeconds() - cpu;
    cpu = ProcessCpuSeconds();
    AuditResult sequential =
        auditor.AuditSequential(trace.value(), reports.value(), d.initial[e]);
    sequential_cpu += ProcessCpuSeconds() - cpu;
    gates->Expect(grouped.accepted && sequential.accepted,
                  "paper yardstick audits of epoch " + std::to_string(e + 1) + " must ACCEPT");
  }
  return Ratio(sequential_cpu, grouped_cpu);
}

void AddLiveReadings(const LivePassResult& p, Record* out) {
  out->Add("net.stream_epoch_s", "s", p.stream_s);
  out->Add("net.ingest_mb_s", "MiB/s",
           Ratio(static_cast<double>(p.service.bytes_spooled) / (1024.0 * 1024.0), p.stream_s));
  out->Add("net.bytes_sent", "B", static_cast<double>(p.client.bytes_sent));
  out->Add("net.acks", "count", static_cast<double>(p.client.acks_received));
  out->Add("net.backpressure_stalls", "count", p.backpressure_stalls);
  out->Add("service.records_spooled", "count", static_cast<double>(p.service.records_spooled));
  out->Add("service.bytes_spooled", "B", static_cast<double>(p.service.bytes_spooled));
  out->Add("service.verdict_wait_s", "s", p.verdict_wait_s);
  out->Add("common.fsyncs", "count", p.fsyncs);
}

void AddStreamReadings(const StreamReadings& p, Record* out) {
  const std::map<std::string, SpanTotals> t = p.recorder->Totals();
  auto total = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  out->Add("stream.trace_load_s", "s", total("stream.trace_load"));
  out->Add("stream.trace_loads", "count", static_cast<double>(p.trace_tally.loads));
  out->Add("stream.trace_bytes", "B", static_cast<double>(p.trace_tally.bytes));
  out->Add("stream.reports_load_s", "s", total("stream.reports_load"));
  out->Add("stream.reports_loads", "count", static_cast<double>(p.reports_tally.loads));
  out->Add("stream.reports_bytes", "B", static_cast<double>(p.reports_tally.bytes));
  out->Add("stream.reads_issued", "count", p.reads_issued);
  out->Add("stream.reads_coalesced", "count", p.reads_coalesced);
  out->Add("stream.budget_waits", "count", p.budget_waits);
  out->Add("stream.oversized_admissions", "count", p.oversized_admissions);
  out->Add("stream.gate_wait_s", "s", p.gate_wait_s);
  out->Add("stream.budget_peak_bytes", "B", static_cast<double>(p.budget_peak_bytes));
  out->Add("stream.budget_largest_admission_bytes", "B",
           static_cast<double>(p.budget_largest_admission_bytes));
  out->Add("stream.prefetch_hits", "count", static_cast<double>(p.prefetch.hits));
  out->Add("stream.prefetch_misses", "count", static_cast<double>(p.prefetch.misses));
  out->Add("stream.prefetch_revoked", "count", static_cast<double>(p.prefetch.revoked));
  out->Add("stream.prefetch_hit_rate", "ratio",
           Ratio(static_cast<double>(p.prefetch.hits),
                 static_cast<double>(p.prefetch.hits + p.prefetch.misses)));
  out->Add("stream.pass1_transient_peak_bytes", "B",
           static_cast<double>(p.pass1_transient_peak_bytes));
}

void AddDecomposition(const Decomposition& d, const SpanRecorder& rec, Record* out) {
  const std::map<std::string, SpanTotals> t = rec.Totals();
  auto get = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? SpanTotals{} : it->second;
  };
  out->Add("objects.decode_trace_s", "s", get("objects.decode_trace").total_s);
  out->Add("objects.decode_reports_s", "s", get("objects.decode_reports").total_s);
  out->Add("stream.pass1_trace_s", "s", get("stream.pass1_trace").total_s);
  out->Add("stream.pass1_reports_s", "s", get("stream.pass1_reports").total_s);
  out->Add("core.prepare_s", "s", get("core.prepare").total_s);
  out->Add("core.plan_s", "s", get("core.plan").total_s);
  out->Add("core.compare_s", "s", get("core.compare").total_s);
  out->Add("core.final_state_s", "s", get("core.final_state").total_s);
  out->Add("core.unattributed_s", "s", get("core.feed_epoch").self_s);
  const SpanTotals execute = get("core.execute");
  const SpanTotals chunks = get("core.chunk");
  out->Add("core.execute_s", "s", execute.total_s);
  out->Add("core.chunks", "count", static_cast<double>(chunks.count));
  out->Add("core.chunk_busy_s", "s", chunks.total_s);
  out->Add("core.chunk_s.max", "s", chunks.max_s);
  out->Add("core.parallel_efficiency", "ratio",
           Ratio(chunks.total_s, static_cast<double>(kAuditThreads) * execute.total_s));
  out->Add("core.groups", "count", static_cast<double>(d.stats.num_groups));
  out->Add("core.groups_multi", "count", static_cast<double>(d.stats.groups_multi));
  out->Add("core.ops_checked", "count", static_cast<double>(d.stats.ops_checked));
  const double instructions = static_cast<double>(d.stats.total_instructions);
  out->Add("lang.instructions", "count", instructions);
  out->Add("lang.multivalent_frac", "ratio",
           Ratio(static_cast<double>(d.stats.multivalent_instructions), instructions));
  out->Add("lang.ns_per_instruction", "ns", Ratio(chunks.total_s * 1e9, instructions));
  const double issued = static_cast<double>(d.stats.db_selects_issued);
  const double deduped = static_cast<double>(d.stats.db_selects_deduped);
  out->Add("sql.selects_issued", "count", issued);
  out->Add("sql.selects_deduped", "count", deduped);
  out->Add("sql.dedup_ratio", "ratio", Ratio(deduped, issued + deduped));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;  // Empty = untraced run.
  std::string work_dir = "ledger-work";
  int verify = 0;         // Child mode: the verifier process's number (1-based).
  std::string spill_dir;  // Child mode: the parent's spill directory.
};

// Timed verifier passes of the untraced run. Both kinds of pass run the calibration kernel
// between their timed units (a file pass between epochs, a live pass shortly before each
// slot) and scale every epoch's latency by the kernel runs around it.
void RunTimedPasses(const Args& a, const WorkloadSpec& spec, const Workload& w,
                    const Layout& L, const LiveEpochs& live_epochs, uint64_t reference_chain,
                    Record* out) {
  Gates* gates = &out->gates;
  const double requests = static_cast<double>(w.items.size());
  const bool live = spec.live_interval_s >= 0;
  const SpanRecorder::Clock::time_point origin = SpanRecorder::Clock::now();
  double lateness = 0;
  if (live) {  // Warm-up: the first service, connection and spool of the process.
    SpanRecorder rec(origin);
    RunLivePass(w, spec, live_epochs, spec.live_interval_s, L.dir + "/spool-warm-up",
                reference_chain, /*calibrate=*/false, &rec, gates);
  }
  WallTimer loop;
  for (int p = 0; p < (live ? kMinLivePasses : kMinFilePasses) || loop.Seconds() < a.seconds;
       p++) {
    std::vector<double> epoch_s;
    std::vector<double> scaled;
    std::vector<double> kernel_s;
    if (live) {
      SpanRecorder rec(origin);
      LivePassResult r =
          RunLivePass(w, spec, live_epochs, spec.live_interval_s,
                      L.dir + "/spool" + std::to_string(p), reference_chain,
                      /*calibrate=*/true, &rec, gates);
      epoch_s = std::move(r.latency_s);
      scaled = std::move(r.latency_at_reference_s);
      kernel_s = std::move(r.kernel_s);
      lateness = std::max(lateness, r.max_lateness_s);
    } else {
      FilePassResult r = RunFilePass(w, spec, L, nullptr, gates, &kernel_s);
      gates->Expect(r.chain == reference_chain, "timed pass chain fingerprint must equal the "
                                                "warm-up pass's");
      epoch_s = std::move(r.epoch_s);
      for (size_t e = 0; e < epoch_s.size(); e++) {
        scaled.push_back(AtReferenceSpeed(epoch_s[e], kernel_s[e], kernel_s[e + 1]));
      }
    }
    out->Add("audit_rps.raw", "req/s", Ratio(requests, Sum(epoch_s)));
    out->Add("audit_rps", "req/s", Ratio(requests, Sum(scaled)));
    out->AddLatencies("epoch_verdict_s.raw", epoch_s);
    out->AddLatencies("epoch_verdict_s", scaled);
    for (double k : kernel_s) {
      out->Add("calibration.kernel_s", "s", k);
    }
  }
  if (live) {
    out->Add("live.max_lateness_s", "s", lateness);
  }
}

// The per-layer run (one verifier process).
void RunTracedPasses(const Args& a, const WorkloadSpec& spec, const Workload& w,
                     const Layout& L, const LiveEpochs& live_epochs, uint64_t reference_chain,
                     Record* out) {
  Gates* gates = &out->gates;
  const SpanRecorder::Clock::time_point origin = SpanRecorder::Clock::now();
  // Untraced and traced passes alternate, so drift hits both alike.
  std::vector<double> untraced_s, traced_s;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  WallTimer loop;
  while (recorders.empty() || loop.Seconds() < a.seconds) {
    const FilePassResult plain = RunFilePass(w, spec, L, nullptr, gates);
    untraced_s.push_back(plain.wall_s);
    recorders.push_back(std::make_unique<SpanRecorder>(origin));
    StreamReadings readings;
    readings.recorder = recorders.back().get();
    const FilePassResult traced = RunFilePass(w, spec, L, &readings, gates);
    traced_s.push_back(traced.wall_s);
    gates->Expect(plain.chain == reference_chain && traced.chain == reference_chain,
                  "per-layer pass chain fingerprints must equal the warm-up pass's");
    AddStreamReadings(readings, out);
    out->Add("calibration.kernel_s", "s", KernelSeconds());
  }
  out->Add("trace.overhead_pct", "%",
           100.0 * (Ratio(Median(traced_s), Median(untraced_s)) - 1.0));

  SpanRecorder decomp_rec(origin);
  const Decomposition d = Decompose(w, spec, L, &decomp_rec, gates);
  gates->Expect(d.chain == reference_chain,
                "engine decomposition chain fingerprint must equal the streamed chain's");
  AddDecomposition(d, decomp_rec, out);
  out->Add("paper.audit_speedup", "x", PaperAuditSpeedup(w, spec, L, d, gates));

  // File workloads stream their epochs back to back; forum-live keeps its schedule.
  SpanRecorder live_rec(origin);
  AddLiveReadings(RunLivePass(w, spec, live_epochs, std::max(spec.live_interval_s, 0.0),
                              L.dir + "/spool-traced", reference_chain, /*calibrate=*/false,
                              &live_rec, gates),
                  out);

  const std::string path = a.trace_dir + "/" + a.workload + ".trace.json";
  gates->Expect(WriteChromeTrace(path, {recorders.front().get(), &decomp_rec, &live_rec}),
                "write " + path);
  out->MetaString("trace_file", path);
}

int RunVerifier(const Args& a) {
  const WorkloadSpec& spec = *FindSpec(a.workload);
  const Layout L{a.spill_dir};
  Workload w = MakeLedgerWorkload(a.workload, a.seed);
  Record out;

  // Warm-up: untimed; its chained fingerprint is the reference for every later pass, and
  // every verifier process must reach the same one.
  const uint64_t chain = RunFilePass(w, spec, L, nullptr, &out.gates).chain;
  out.MetaString("chain_fingerprint", Hex64(chain));
  LiveEpochs live_epochs;
  Status loaded = Status::Ok();
  if (spec.live_interval_s >= 0 || !a.trace_dir.empty()) {
    loaded = LoadLiveEpochs(L, &live_epochs);
    out.gates.Expect(loaded.ok(), "load epochs for streaming: " + loaded.error());
  }
  // Failed checks do not stop the passes: the record still carries every metric, with the
  // failures counted.
  if (loaded.ok()) {
    if (a.trace_dir.empty()) {
      RunTimedPasses(a, spec, w, L, live_epochs, chain, &out);
    } else {
      RunTracedPasses(a, spec, w, L, live_epochs, chain, &out);
    }
  }
  out.Add("audit_peak_rss_mb", "MiB", PeakRssMb());
  if (!out.WriteText(L.VerifierOut(a.verify))) {
    std::fprintf(stderr, "ledger: cannot write %s\n", L.VerifierOut(a.verify).c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------------------
// Parent: set-up, spawn the verifiers, report.

int SpawnVerifier(const Args& a, int proc, double seconds) {
  std::vector<std::string> args = {
      "bench_ledger", "--verify=" + std::to_string(proc), "--workload=" + a.workload,
      "--seed=" + std::to_string(a.seed), "--seconds=" + std::to_string(seconds),
      "--spill-dir=" + a.spill_dir};
  if (!a.trace_dir.empty()) {
    args.push_back("--trace=" + a.trace_dir);
  }
  std::vector<char*> argv;
  for (std::string& s : args) {
    argv.push_back(s.data());
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
    std::perror("ledger: posix_spawn");
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("ledger: waitpid");
      return -1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunWorkload(Args a) {
  const WorkloadSpec& spec = *FindSpec(a.workload);
  a.spill_dir = a.work_dir + "/" + a.workload + "-" + std::to_string(a.seed) + "-" +
                std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(a.spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ledger: cannot create %s: %s\n", a.spill_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (!a.trace_dir.empty()) {
    fs::create_directories(a.trace_dir, ec);
  }
  const Layout L{a.spill_dir};
  Record out;

  std::vector<SetupRep> reps(kSetupReps);
  for (int r = 0; r < kSetupReps; r++) {
    SetupRep& rep = reps[static_cast<size_t>(r)];
    Status st = SetupOnce(a.workload, a.seed, L, &rep);
    out.gates.Expect(st.ok(), "set-up: " + st.error());
    if (!st.ok()) {
      out.Print(a.workload, a.seed);
      fs::remove_all(a.spill_dir, ec);
      return 1;
    }
    size_t diff = 0;
    while (diff < rep.crcs.size() && rep.crcs[diff] == reps[0].crcs[diff]) {
      diff++;
    }
    out.gates.Expect(diff == rep.crcs.size(), "set-up " + std::to_string(r + 1) +
                                                  " must spill the same bytes as set-up 1 "
                                                  "(file " + std::to_string(diff + 1) +
                                                  " differs)");
    const double requests = static_cast<double>(rep.requests);
    out.Add("setup_s.raw", "s", rep.setup_s);
    out.Add("setup_s", "s", AtReferenceSpeed(rep.setup_s, Median(rep.kernel_s)));
    out.Add("serve_rps.raw", "req/s", Ratio(requests, rep.serve_s));
    out.Add("serve_rps", "req/s", Ratio(requests, rep.serve_at_reference_s));
    out.Add("workload.generate_s", "s", rep.generate_s);
    out.Add("server.serve_s", "s", rep.serve_s);
    out.Add("server.cpu_us_per_req", "us", Ratio(rep.server_cpu_s * 1e6, requests));
    out.Add("objects.spill_s", "s", rep.spill_s);
    for (double k : rep.kernel_s) {
      out.Add("calibration.setup_kernel_s", "s", k);
    }
  }
  const SetupRep& s0 = reps[0];
  const double requests = static_cast<double>(s0.requests);
  out.Add("report_bytes_per_req", "B", Ratio(static_cast<double>(s0.reports_bytes), requests));
  out.Add("objects.reports_bytes_per_req", "B",
          Ratio(static_cast<double>(s0.reports_bytes), requests));
  out.Add("objects.trace_bytes_per_req", "B",
          Ratio(static_cast<double>(s0.trace_bytes), requests));

  if (!a.trace_dir.empty()) {
    // Figure 8's report overhead: trace + all reports against trace + the nondet reports
    // a plain deployment would also keep.
    uint64_t nondet_bytes = 0;
    for (int e = 0; e < kEpochs; e++) {
      Result<Reports> r = ReadReportsFile(L.Reports(e));
      out.gates.Expect(r.ok(), "read reports for the report-overhead yardstick");
      if (r.ok()) {
        nondet_bytes += r.value().WireBytes(/*nondet_only=*/true);
      }
    }
    const double trace_bytes = static_cast<double>(s0.trace_bytes);
    out.Add("paper.report_overhead_pct", "%",
            100.0 * (Ratio(trace_bytes + static_cast<double>(s0.reports_bytes),
                           trace_bytes + static_cast<double>(nondet_bytes)) -
                     1.0));
    // Server CPU counts only request handling, so the recording set-ups compare directly
    // with plain serves of the same requests.
    std::vector<double> recording, plain;
    for (const SetupRep& r : reps) {
      recording.push_back(r.server_cpu_s);
    }
    for (int i = 0; i < 2; i++) {
      plain.push_back(PlainServeCpuSeconds(a.workload, a.seed));
    }
    out.Add("paper.server_cpu_overhead_pct", "%",
            100.0 * (Ratio(Median(recording), Median(plain)) - 1.0));
  }

  out.MetaNumber("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.MetaNumber("audit_threads", static_cast<double>(kAuditThreads));
  out.MetaNumber("max_group_size", static_cast<double>(kMaxGroupSize));
  out.MetaNumber("prefetch_depth", static_cast<double>(kPrefetchDepth));
  out.MetaNumber("budget_bytes", static_cast<double>(spec.budget_bytes));
  out.MetaNumber("epochs", kEpochs);
  out.MetaNumber("requests", requests);
  out.MetaNumber("seconds", a.seconds);
  out.MetaNumber("reference_kernel_s", kReferenceKernelS);
  if (spec.live_interval_s >= 0) {
    out.MetaNumber("live_interval_s", spec.live_interval_s);
  }
  out.MetaString("build_type", LEDGER_BUILD_TYPE);
  out.MetaString("crc32c_backend", Crc32cBackendName());
  out.MetaString("spill_fs", FsTypeName(a.spill_dir));
  std::string crcs = "[";
  for (size_t i = 0; i < s0.crcs.size(); i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s\"%08x\"", i == 0 ? "" : ", ", s0.crcs[i]);
    crcs += buf;
  }
  out.meta["spill_crc32c"] = crcs + "]";

  // A live pass lasts seconds; splitting the live run would leave each process one cold
  // pass, so it runs in one process with its own warm-up pass.
  const int procs = a.trace_dir.empty() && spec.live_interval_s < 0 ? kVerifierProcs : 1;
  for (int p = 1; p <= procs; p++) {
    const int code = SpawnVerifier(a, p, a.seconds / procs);
    const bool read = out.ReadText(L.VerifierOut(p));
    out.gates.Expect(code == 0 && read, "verifier process " + std::to_string(p) + " exited " +
                                            std::to_string(code) + " without its results");
  }
  fs::remove_all(a.spill_dir, ec);
  out.Print(a.workload, a.seed);
  return out.gates.failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a->workload = v;
    } else if (const char* v = value("--seed=")) {
      Result<uint64_t> seed = ParseSeed(v);
      if (!seed.ok()) {
        std::fprintf(stderr, "ledger: bad --seed: %s\n", seed.error().c_str());
        return false;
      }
      a->seed = seed.value();
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds >= 0)) {
        std::fprintf(stderr, "ledger: bad --seconds: %s\n", v);
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      a->trace_dir = v;
    } else if (const char* v = value("--work-dir=")) {
      a->work_dir = v;
    } else if (const char* v = value("--spill-dir=")) {
      a->spill_dir = v;
    } else if (const char* v = value("--verify=")) {
      a->verify = std::atoi(v);
    } else {
      std::fprintf(stderr, "ledger: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (FindSpec(a->workload) == nullptr) {
    std::fprintf(stderr, "ledger: --workload must be one of forum-chain, wiki-chain, "
                         "conf-paged, forum-live\n");
    return false;
  }
  return a->verify == 0 || (a->verify > 0 && !a->spill_dir.empty());
}

}  // namespace
}  // namespace ledger
}  // namespace orochi

int main(int argc, char** argv) {
  using namespace orochi::ledger;
  // A stray knob would make two commits measure different configurations.
  for (const char* knob : {"OROCHI_AUDIT_THREADS", "OROCHI_AUDIT_BUDGET",
                           "OROCHI_PREFETCH_DEPTH", "OROCHI_TRACE_FILE"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "ledger: refusing to run with %s set\n", knob);
      return 2;
    }
  }
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: bench_ledger --workload=<name> --seed=<u64> [--seconds=<n>] "
                 "[--trace=<dir>] [--work-dir=<dir>]\n");
    return 2;
  }
  return a.verify > 0 ? RunVerifier(a) : RunWorkload(a);
}

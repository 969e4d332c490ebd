// The live audit service end to end, against the properties the offline pipeline already
// guarantees:
//
//   1. Parity: streaming N concurrent shards through sockets and letting the service
//      seal + audit must produce a verdict, reason, and final state bit-identical to
//      AuditSession::FeedShardedEpoch over the equivalent spill files — across epochs
//      (chained states) and at more than one verifier thread count; the sealed spool
//      files themselves are byte-identical to the local spills.
//   2. Reconnect-with-resume: a collector killed mid-epoch reconnects, resumes from the
//      acked counts, and none of the above changes.
//   3. Taxonomy under a seeded fault sweep: whatever disconnects and short writes the
//      schedule fires, the pipeline never crashes, an accept always matches the direct
//      audit's truth, and every client-visible failure is retryable I/O — never tamper.
//   4. Tamper still rejects through the socket path, with the direct audit's reason; a
//      shard lying about its end-of-epoch totals is quarantined, never audited.
//   5. Observability: the registry counters mirror the per-client stats exactly, and a
//      seeded fault schedule shows up in them 1:1 — reconnects equal the scripted
//      disconnects, transient-read retries equal the faults the injected Env fired.
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/io_env.h"
#include "src/core/audit_session.h"
#include "src/net/fault_transport.h"
#include "src/net/frame.h"
#include "src/net/transport.h"
#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/tamper.h"
#include "src/server/thread_server.h"
#include "src/service/audit_service.h"
#include "src/service/collector_client.h"
#include "src/workload/workloads.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

Result<Workload> CounterWorkload() {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  if (Result<StmtResult> r =
          w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
      !r.ok()) {
    return Result<Workload>::Error(r.error());
  }
  return w;
}

// One served shard slice, kept restreamable: `trace` is the collector's recording and
// can be Restore()d into a fresh Collector any number of times.
struct ShardSlice {
  uint32_t shard_id = 0;
  Trace trace;
  Reports reports;
};

ShardSlice ServeSlice(uint32_t shard_id, uint64_t epoch,
                      size_t requests, ServerCore* core) {
  ShardSlice slice;
  slice.shard_id = shard_id;
  Collector collector(shard_id);
  {
    ThreadServer server(core, &collector, /*num_workers=*/3);
    RequestId rid = 1 + 100000 * shard_id + 1000000 * (epoch - 1);
    for (size_t i = 0; i < requests; i++) {
      RequestParams params;
      params["key"] = "s" + std::to_string(shard_id) + "_k" + std::to_string(i % 7);
      params["who"] = "s" + std::to_string(shard_id) + "_u" + std::to_string(i % 5);
      server.Submit(rid++, (i % 4 == 3) ? "/counter/read" : "/counter/hit", params);
    }
    server.Drain();
  }
  slice.trace = collector.TakeTrace();
  slice.reports = core->TakeReports();
  return slice;
}

// Spills the slice the way the collector would locally — the byte-parity and
// direct-audit baseline.
ShardEpochFiles SpillSlice(const ShardSlice& slice, const std::string& stem) {
  ShardEpochFiles files{stem + ".trace", stem + ".reports"};
  EXPECT_TRUE(WriteTraceFile(files.trace_path, slice.trace, slice.shard_id).ok());
  EXPECT_TRUE(WriteReportsFile(files.reports_path, slice.reports).ok());
  return files;
}

// Streams the slice to the service as `epoch`; a fresh Collector is loaded with a copy
// of the recording so the slice survives for re-streaming in sweep iterations.
Status StreamSlice(const std::string& address, const ShardSlice& slice, uint64_t epoch,
                   Transport* transport, int max_reconnects, ClientStats* stats = nullptr) {
  Collector collector(slice.shard_id);
  collector.Restore(Trace(slice.trace));
  CollectorClient client(address, transport, max_reconnects);
  Status st = client.StreamEpoch(epoch, &collector, slice.reports);
  if (stats != nullptr) {
    *stats = client.stats();
  }
  return st;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

ServiceOptions TestServiceOptions(const std::string& spool_dir, uint32_t shards) {
  ServiceOptions options;
  options.listen_address = "tcp:127.0.0.1:0";
  options.shards_per_epoch = shards;
  options.spool_dir = spool_dir;
  // Small enough that backpressure + acks actually cycle in a small test.
  options.max_in_flight_bytes = 8 * 1024;
  options.ack_interval_records = 16;
  return options;
}

// The body of the service's /epochs endpoint, scraped over HTTP like an operator would.
std::string ScrapeEpochs(const std::string& stats_address) {
  Result<std::unique_ptr<Connection>> conn = Transport::Default()->Connect(stats_address);
  if (!conn.ok() ||
      !conn.value()->WriteAll(std::string("GET /epochs HTTP/1.0\r\n\r\n")).ok()) {
    return "";
  }
  std::string response;
  char buf[4096];
  for (Result<size_t> n = conn.value()->ReadSome(buf, sizeof(buf)); n.ok() && n.value() > 0;
       n = conn.value()->ReadSome(buf, sizeof(buf))) {
    response.append(buf, n.value());
  }
  return response;
}

std::string MakeSpoolDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/orochi_svc_" + name;
  EXPECT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  return dir;
}

// --- 1 + 2. Parity across chained epochs, thread counts, and a mid-epoch kill ---

TEST(AuditService, ChainedEpochParityWithReconnectAtTwoThreadCounts) {
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("parity");

  // Two front ends, two epochs each, persistent executors (epoch 2 continues epoch 1's
  // server state — what the chained audit verifies).
  std::vector<std::unique_ptr<ServerCore>> cores;
  for (int i = 0; i < 2; i++) {
    cores.push_back(std::make_unique<ServerCore>(&w.app, w.initial,
                                                 ServerOptions{.record_reports = true}));
  }
  std::vector<std::vector<ShardSlice>> slices(2);     // [epoch-1][shard-1]
  std::vector<std::vector<ShardEpochFiles>> direct(2);
  for (uint64_t epoch = 1; epoch <= 2; epoch++) {
    for (uint32_t shard = 1; shard <= 2; shard++) {
      ShardSlice slice =
          ServeSlice(shard, epoch, /*requests=*/40 + 8 * shard, cores[shard - 1].get());
      direct[epoch - 1].push_back(SpillSlice(
          slice, spool + "/direct_e" + std::to_string(epoch) + "_s" + std::to_string(shard)));
      slices[epoch - 1].push_back(std::move(slice));
    }
  }

  AuditOptions audit_options;
  audit_options.max_group_size = 8;
  AuditService service(&w.app, audit_options, w.initial, TestServiceOptions(spool, 2));
  ASSERT_TRUE(service.Start().ok());

  // Epoch 1: both shards stream concurrently; shard 2's process dies mid-epoch (a
  // scripted one-shot kill) and must reconnect + resume.
  NetFaultOptions kill;
  kill.disconnect_after_writes = 10;
  FaultInjectingTransport kill_transport(nullptr, kill);
  {
    ClientStats s1, s2;
    std::thread t1([&]() {
      EXPECT_TRUE(StreamSlice(service.address(), slices[0][0], 1, nullptr, 8, &s1).ok());
    });
    std::thread t2([&]() {
      EXPECT_TRUE(
          StreamSlice(service.address(), slices[0][1], 1, &kill_transport, 8, &s2).ok());
    });
    t1.join();
    t2.join();
    EXPECT_EQ(kill_transport.disconnects(), 1u);
    EXPECT_GE(s2.reconnects, 1u);
    EXPECT_GT(s2.records_resumed, 0u) << "resume should skip the acked records";
  }
  // Epoch 2: clean.
  for (uint32_t shard = 1; shard <= 2; shard++) {
    ASSERT_TRUE(StreamSlice(service.address(), slices[1][shard - 1], 2, nullptr, 8).ok());
  }

  Result<AuditResult> v1 = service.WaitEpochVerdict(1);
  Result<AuditResult> v2 = service.WaitEpochVerdict(2);
  ASSERT_TRUE(v1.ok()) << v1.error();
  ASSERT_TRUE(v2.ok()) << v2.error();
  EXPECT_TRUE(v1.value().accepted) << v1.value().reason;
  EXPECT_TRUE(v2.value().accepted) << v2.value().reason;
  ServiceStats stats = service.stats();
  service.Stop();
  EXPECT_EQ(stats.shards_sealed, 4u);
  EXPECT_EQ(stats.epochs_accepted, 2u);

  // The sealed spools are the spill files, byte for byte.
  for (uint64_t epoch = 1; epoch <= 2; epoch++) {
    for (uint32_t shard = 1; shard <= 2; shard++) {
      const std::string stem = spool + "/epoch_" + std::to_string(epoch) + "_shard_" +
                               std::to_string(shard);
      EXPECT_EQ(Slurp(stem + ".trace"), Slurp(direct[epoch - 1][shard - 1].trace_path))
          << "epoch " << epoch << " shard " << shard;
      EXPECT_EQ(Slurp(stem + ".reports"), Slurp(direct[epoch - 1][shard - 1].reports_path))
          << "epoch " << epoch << " shard " << shard;
    }
  }

  // The live verdicts equal a direct chained session over the spill files, at two
  // verifier thread counts.
  for (size_t threads : {size_t{1}, size_t{3}}) {
    AuditOptions options;
    options.max_group_size = 8;
    options.num_threads = threads;
    AuditSession session = AuditSession::Open(&w.app, options, w.initial);
    Result<AuditResult> d1 = session.FeedShardedEpoch(direct[0]);
    Result<AuditResult> d2 = session.FeedShardedEpoch(direct[1]);
    ASSERT_TRUE(d1.ok() && d2.ok());
    EXPECT_EQ(d1.value().accepted, v1.value().accepted);
    EXPECT_EQ(d1.value().reason, v1.value().reason);
    EXPECT_EQ(d2.value().accepted, v2.value().accepted);
    EXPECT_EQ(d2.value().reason, v2.value().reason);
    EXPECT_EQ(InitialStateFingerprint(d1.value().final_state),
              InitialStateFingerprint(v1.value().final_state))
        << "num_threads=" << threads;
    EXPECT_EQ(InitialStateFingerprint(d2.value().final_state),
              InitialStateFingerprint(v2.value().final_state))
        << "num_threads=" << threads;
  }
}

// --- 3. The seeded fault sweep ---

TEST(AuditService, FaultSweepNeverCrashesNeverFalselyAccepts) {
  const uint64_t base_seed = TestBaseSeed(0x11E7);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("sweep");

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  ShardSlice slice = ServeSlice(/*shard_id=*/1, /*epoch=*/1, /*requests=*/24, &core);
  ShardEpochFiles files = SpillSlice(slice, spool + "/direct");
  AuditOptions audit_options;
  audit_options.max_group_size = 8;
  AuditSession direct = AuditSession::Open(&w.app, audit_options, w.initial);
  Result<AuditResult> truth = direct.FeedShardedEpoch({files});
  ASSERT_TRUE(truth.ok() && truth.value().accepted);
  const std::string truth_print = InitialStateFingerprint(truth.value().final_state);

  constexpr int kSchedules = 24;
  int accepted = 0;
  int transient_failures = 0;
  uint64_t faults_fired = 0;
  for (int s = 0; s < kSchedules; s++) {
    NetFaultOptions fo;
    fo.seed = base_seed + static_cast<uint64_t>(s);
    fo.p_disconnect_read = 0.03;
    fo.p_disconnect_write = 0.03;
    fo.p_short_write = 0.01;
    FaultInjectingTransport faulty(nullptr, fo);

    AuditService service(&w.app, audit_options, w.initial, TestServiceOptions(spool, 1));
    ASSERT_TRUE(service.Start().ok());
    Status st = StreamSlice(service.address(), slice, /*epoch=*/1, &faulty,
                            /*max_reconnects=*/64);
    faults_fired += faulty.faults_injected();
    if (st.ok()) {
      // The epoch sealed: the verdict must be the direct audit's truth, exactly.
      Result<AuditResult> verdict = service.WaitEpochVerdict(1);
      ASSERT_TRUE(verdict.ok()) << "schedule " << s << ": " << verdict.error();
      ASSERT_TRUE(verdict.value().accepted)
          << "schedule " << s << " falsely rejected honest traffic under injected "
          << "network faults: " << verdict.value().reason;
      ASSERT_EQ(InitialStateFingerprint(verdict.value().final_state), truth_print)
          << "schedule " << s << " accepted a state diverging from the truth";
      accepted++;
    } else {
      // Reconnects exhausted: the failure must classify as retryable I/O — a network
      // flap is never reported as tamper evidence.
      EXPECT_EQ(st.code(), StatusCode::kTransient)
          << "schedule " << s << " misclassified an injected fault: " << st.error();
      transient_failures++;
    }
    service.Stop();
  }
  EXPECT_GT(faults_fired, 0u) << "the sweep never exercised a fault";
  EXPECT_GT(accepted, 0) << "no schedule survived to a verdict; sweep proves nothing";
  EXPECT_EQ(accepted + transient_failures, kSchedules);
}

// --- 4. Tamper and lies through the socket path ---

TEST(AuditService, TamperedStreamRejectsWithTheDirectAuditsReason) {
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("tamper");

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  ShardSlice slice = ServeSlice(/*shard_id=*/1, /*epoch=*/1, /*requests=*/32, &core);
  // The untrusted side forges a response body before the stream leaves the machine.
  RequestId victim = 0;
  for (const TraceEvent& e : slice.trace.events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      victim = e.rid;
      break;
    }
  }
  ASSERT_TRUE(TamperResponseBody(&slice.trace, victim, "<html>forged</html>"));
  ShardEpochFiles files = SpillSlice(slice, spool + "/direct");

  AuditOptions audit_options;
  audit_options.max_group_size = 8;
  AuditSession direct = AuditSession::Open(&w.app, audit_options, w.initial);
  Result<AuditResult> truth = direct.FeedShardedEpoch({files});
  ASSERT_TRUE(truth.ok());
  ASSERT_FALSE(truth.value().accepted);

  AuditService service(&w.app, audit_options, w.initial, TestServiceOptions(spool, 1));
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(StreamSlice(service.address(), slice, 1, nullptr, 8).ok())
      << "tampered content still streams and seals; rejection is the audit's job";
  Result<AuditResult> verdict = service.WaitEpochVerdict(1);
  service.Stop();
  ASSERT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_FALSE(verdict.value().accepted);
  EXPECT_EQ(verdict.value().reason, truth.value().reason);
}

TEST(AuditService, ShardLyingAboutTotalsIsQuarantinedNeverAudited) {
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("quarantine");

  AuditOptions audit_options;
  AuditService service(&w.app, audit_options, w.initial, TestServiceOptions(spool, 1));
  ASSERT_TRUE(service.Start().ok());

  // A hand-rolled client: handshake, spool one real record, then claim five.
  Result<std::unique_ptr<Connection>> conn =
      Transport::Default()->Connect(service.address());
  ASSERT_TRUE(conn.ok()) << (conn.ok() ? "" : conn.error());
  net::FrameWriter writer(conn.value().get());
  net::FrameReader reader(conn.value().get());
  ASSERT_TRUE(
      writer.Send(net::kFrameHello, net::EncodeHello({wire::kFormatVersion, 1, 1})).ok());
  uint8_t type = 0;
  std::string payload;
  Result<bool> got = reader.Next(&type, &payload);
  ASSERT_TRUE(got.ok() && got.value());
  ASSERT_EQ(type, net::kFrameHelloAck);

  TraceEvent event;
  event.kind = TraceEvent::Kind::kRequest;
  event.rid = 1;
  event.script = "/counter/read";
  net::RecordFrame rec;
  rec.index = 0;
  EncodeTraceEventRecord(event, &rec.record_type, &rec.payload);
  ASSERT_TRUE(writer.Send(net::kFrameTraceRecord, net::EncodeRecord(rec)).ok());
  ASSERT_TRUE(
      writer.Send(net::kFrameEndEpoch, net::EncodeEndEpoch({/*trace=*/5, 0})).ok());

  // The service answers with the quarantine, not a seal.
  bool saw_error = false;
  for (;;) {
    Result<bool> next = reader.Next(&type, &payload);
    if (!next.ok() || !next.value()) {
      break;
    }
    if (type == net::kFrameError) {
      Result<net::ErrorFrame> err = net::DecodeError(payload);
      ASSERT_TRUE(err.ok());
      EXPECT_NE(err.value().message.find("quarantined"), std::string::npos)
          << err.value().message;
      saw_error = true;
    }
    ASSERT_NE(type, net::kFrameEpochSealed) << "a lying shard must never seal";
  }
  EXPECT_TRUE(saw_error);

  Result<AuditResult> verdict = service.WaitEpochVerdict(1);
  ASSERT_FALSE(verdict.ok()) << "a quarantined epoch must not produce a verdict";
  EXPECT_NE(verdict.error().find("quarantined"), std::string::npos) << verdict.error();
  ServiceStats stats = service.stats();
  service.Stop();
  EXPECT_EQ(stats.shards_quarantined, 1u);
  EXPECT_EQ(stats.epochs_audited, 0u);
}

// /epochs classifies a failed epoch by its error code, so an operator can tell a
// retryable spool problem ("io") from a misconfigured verifier ("config") without reading
// the message: unreadable spools are "io", a malformed OROCHI_AUDIT_BUDGET is "config".
TEST(AuditService, EpochsEndpointClassifiesAuditErrors) {
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  ShardSlice slice = ServeSlice(/*shard_id=*/1, /*epoch=*/1, /*requests=*/16, &core);
  FaultOptions unreadable;
  unreadable.p_read_error = 1.0;  // Every spool read fails permanently (EIO).
  FaultInjectingEnv eio(nullptr, unreadable);
  for (bool config : {false, true}) {
    SCOPED_TRACE(config ? "config" : "io");
    AuditOptions audit_options;
    audit_options.io_env = config ? nullptr : &eio;
    ServiceOptions service_options =
        TestServiceOptions(MakeSpoolDir(config ? "config" : "eio"), 1);
    service_options.stats_address = "tcp:127.0.0.1:0";
    // Set before any service thread starts and cleared after they are joined.
    if (config) {
      ASSERT_EQ(setenv("OROCHI_AUDIT_BUDGET", "lots", 1), 0);
    }
    AuditService service(&w.app, audit_options, w.initial, service_options);
    if (Status started = service.Start(); !started.ok()) {
      unsetenv("OROCHI_AUDIT_BUDGET");
      FAIL() << started.error();
    }
    Status streamed = StreamSlice(service.address(), slice, 1, nullptr, 8);
    Result<AuditResult> verdict = streamed.ok() ? service.WaitEpochVerdict(1) : streamed;
    const std::string epochs = ScrapeEpochs(service.stats_address());
    service.Stop();
    unsetenv("OROCHI_AUDIT_BUDGET");
    ASSERT_TRUE(streamed.ok()) << streamed.error();
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), config ? StatusCode::kConfig : StatusCode::kError)
        << verdict.error();
    EXPECT_NE(epochs.find("\"error\": "), std::string::npos) << epochs;
    const char* error_class = config ? "\"error_class\": \"config\""
                                     : "\"error_class\": \"io\"";
    EXPECT_NE(epochs.find(error_class), std::string::npos) << epochs;
  }
}

// A frame corrupted on the wire is counted, reported as ErrorCode::kCorruption, and the
// record is never spooled — re-sending after the resume handshake still seals to the
// exact spill bytes.
TEST(AuditService, CorruptFrameIsReportedAndNeverSpooled) {
  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("corrupt");

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  ShardSlice slice = ServeSlice(/*shard_id=*/1, /*epoch=*/1, /*requests=*/16, &core);
  ShardEpochFiles files = SpillSlice(slice, spool + "/direct");

  AuditOptions audit_options;
  audit_options.max_group_size = 8;
  AuditService service(&w.app, audit_options, w.initial, TestServiceOptions(spool, 1));
  ASSERT_TRUE(service.Start().ok());

  {  // Attempt 1: hand-deliver a record frame whose payload byte flipped in flight.
    Result<std::unique_ptr<Connection>> conn =
        Transport::Default()->Connect(service.address());
    ASSERT_TRUE(conn.ok());
    net::FrameWriter writer(conn.value().get());
    net::FrameReader reader(conn.value().get());
    ASSERT_TRUE(
        writer.Send(net::kFrameHello, net::EncodeHello({wire::kFormatVersion, 1, 1})).ok());
    uint8_t type = 0;
    std::string payload;
    Result<bool> got = reader.Next(&type, &payload);
    ASSERT_TRUE(got.ok() && got.value());
    ASSERT_EQ(type, net::kFrameHelloAck);

    net::RecordFrame rec;
    rec.index = 0;
    EncodeTraceEventRecord(slice.trace.events[0], &rec.record_type, &rec.payload);
    std::string frame;
    wire::AppendRecordFrame(&frame, net::kFrameTraceRecord, net::EncodeRecord(rec));
    frame.back() ^= 0x40;
    ASSERT_TRUE(conn.value()->WriteAll(frame).ok());
    got = reader.Next(&type, &payload);
    ASSERT_TRUE(got.ok() && got.value());
    ASSERT_EQ(type, net::kFrameError);
    Result<net::ErrorFrame> err = net::DecodeError(payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code, net::ErrorCode::kCorruption);
  }
  EXPECT_EQ(service.stats().corrupt_frames, 1u);
  EXPECT_EQ(service.stats().records_spooled, 0u) << "the corrupt record must not spool";

  // Attempt 2: the real client resumes (from record 0 — nothing was accepted) and the
  // sealed spool is still byte-identical to the local spill.
  ASSERT_TRUE(StreamSlice(service.address(), slice, 1, nullptr, 8).ok());
  Result<AuditResult> verdict = service.WaitEpochVerdict(1);
  service.Stop();
  ASSERT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_TRUE(verdict.value().accepted) << verdict.value().reason;
  EXPECT_EQ(Slurp(spool + "/epoch_1_shard_1.trace"), Slurp(files.trace_path));
}

// --- 5. Observability counters vs the injected schedule ---

// The registry mirrors (orochi_client_*, orochi_io_*) are bumped at the same sites as
// the mutex-guarded per-client stats, so across a seeded sweep the deltas must agree
// exactly — and the fault schedule itself must be visible in them: one reconnect per
// scripted disconnect, one transient-retry per fault the injected Env fired.
TEST(AuditService, ObservabilityCountersMatchTheInjectedSchedule) {
  const uint64_t base_seed = TestBaseSeed(0x0B5);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  const uint64_t reconnects0 = reg->GetCounter("orochi_client_reconnects_total", "")->Value();
  const uint64_t resumed0 =
      reg->GetCounter("orochi_client_records_resumed_total", "")->Value();
  const uint64_t acks0 = reg->GetCounter("orochi_client_acks_received_total", "")->Value();
  const uint64_t retries0 =
      reg->GetCounter("orochi_io_read_transient_retries_total", "")->Value();
  const uint64_t recovered0 = reg->GetCounter("orochi_io_reads_recovered_total", "")->Value();

  Result<Workload> workload = CounterWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  const std::string spool = MakeSpoolDir("obs_sweep");
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  ShardSlice slice = ServeSlice(/*shard_id=*/1, /*epoch=*/1, /*requests=*/32, &core);

  // The service's spool I/O (writes during ingest, reads during the audit) goes through
  // a fault-injecting Env that fires only retryable read errors — every one of them must
  // be absorbed by the retry loop and counted.
  FaultOptions io_fo;
  io_fo.seed = base_seed;
  io_fo.p_read_transient = 0.05;
  FaultInjectingEnv fenv(nullptr, io_fo);
  AuditOptions audit_options;
  audit_options.max_group_size = 8;
  audit_options.io_env = &fenv;
  ServiceOptions soptions = TestServiceOptions(spool, 1);
  soptions.env = &fenv;

  constexpr int kSchedules = 6;
  uint64_t client_reconnects = 0;
  uint64_t client_resumed = 0;
  uint64_t client_acks = 0;
  uint64_t scripted_disconnects = 0;
  for (int s = 0; s < kSchedules; s++) {
    // A one-shot kill at a different point each schedule: the client must reconnect
    // exactly once per disconnect the transport actually fired.
    NetFaultOptions fo;
    fo.disconnect_after_writes = 4 + 7 * s;
    FaultInjectingTransport faulty(nullptr, fo);

    AuditService service(&w.app, audit_options, w.initial, soptions);
    ASSERT_TRUE(service.Start().ok());
    ClientStats cs;
    ASSERT_TRUE(
        StreamSlice(service.address(), slice, /*epoch=*/1, &faulty, 8, &cs).ok());
    Result<AuditResult> verdict = service.WaitEpochVerdict(1);
    ASSERT_TRUE(verdict.ok()) << "schedule " << s << ": " << verdict.error();
    EXPECT_TRUE(verdict.value().accepted) << verdict.value().reason;
    service.Stop();

    EXPECT_EQ(faulty.disconnects(), 1u) << "schedule " << s;
    EXPECT_EQ(cs.reconnects, faulty.disconnects()) << "schedule " << s;
    client_reconnects += cs.reconnects;
    client_resumed += cs.records_resumed;
    client_acks += cs.acks_received;
    scripted_disconnects += faulty.disconnects();
  }

  // Registry mirrors agree with the summed per-client stats, exactly.
  EXPECT_EQ(reg->GetCounter("orochi_client_reconnects_total", "")->Value() - reconnects0,
            client_reconnects);
  EXPECT_EQ(reg->GetCounter("orochi_client_records_resumed_total", "")->Value() - resumed0,
            client_resumed);
  EXPECT_EQ(reg->GetCounter("orochi_client_acks_received_total", "")->Value() - acks0,
            client_acks);
  // ...and the schedule is legible in them: one reconnect per scripted kill.
  EXPECT_EQ(client_reconnects, scripted_disconnects);

  // Every transient read fault the Env injected was retried (none escalated — all six
  // epochs accepted above proves no read ran out of attempts) and counted exactly once.
  const uint64_t retries =
      reg->GetCounter("orochi_io_read_transient_retries_total", "")->Value() - retries0;
  const uint64_t recovered =
      reg->GetCounter("orochi_io_reads_recovered_total", "")->Value() - recovered0;
  EXPECT_EQ(retries, fenv.faults_injected());
  EXPECT_GT(fenv.faults_injected(), 0u) << "the sweep never exercised an I/O fault";
  EXPECT_GT(recovered, 0u);
  EXPECT_LE(recovered, retries);
}

}  // namespace
}  // namespace orochi

#include "src/service/audit_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/common/strings.h"
#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"

namespace orochi {

namespace {

// Ingest-side instruments, mirroring every ServiceStats bump into the process registry so
// the /metrics exposition and the mutex-guarded stats() snapshot can never disagree about
// what happened (they may transiently disagree about when).
struct ServiceMetrics {
  obs::Counter* connections;
  obs::Counter* frames;
  obs::Counter* records_spooled;
  obs::Counter* records_deduped;
  obs::Counter* bytes_spooled;
  obs::Counter* corrupt_frames;
  obs::Counter* shard_reattaches;
  obs::Counter* shards_sealed;
  obs::Counter* shards_quarantined;
  obs::Counter* epochs_audited;
  obs::Counter* epochs_accepted;

  static ServiceMetrics* Get() {
    static ServiceMetrics* const m = [] {
      auto* r = obs::MetricsRegistry::Default();
      auto* out = new ServiceMetrics();
      out->connections = r->GetCounter("orochi_service_connections_total",
                                       "collector connections accepted");
      out->frames = r->GetCounter("orochi_service_frames_total",
                                  "protocol frames read from attached shard streams");
      out->records_spooled = r->GetCounter("orochi_service_records_spooled_total",
                                           "records appended to epoch spool files");
      out->records_deduped = r->GetCounter(
          "orochi_service_records_deduped_total",
          "resume-overlap records skipped exactly (already spooled before a reconnect)");
      out->bytes_spooled = r->GetCounter("orochi_service_bytes_spooled_total",
                                         "bytes appended to epoch spool files");
      out->corrupt_frames = r->GetCounter("orochi_service_corrupt_frames_total",
                                          "frames that failed their CRC (never spooled)");
      out->shard_reattaches = r->GetCounter(
          "orochi_service_shard_reattaches_total",
          "shard streams re-attached by a reconnecting collector (attach count - 1)");
      out->shards_sealed =
          r->GetCounter("orochi_service_shards_sealed_total", "shard spool pairs sealed");
      out->shards_quarantined = r->GetCounter(
          "orochi_service_shards_quarantined_total",
          "shards quarantined for end-epoch totals disagreeing with the spool");
      out->epochs_audited = r->GetCounter("orochi_service_epochs_audited_total",
                                          "epochs the continuous audit reached a verdict for");
      out->epochs_accepted =
          r->GetCounter("orochi_service_epochs_accepted_total", "epochs accepted");
      return out;
    }();
    return m;
  }
};

// One env knob: overrides *out when set, hard kConfig "config: ..." error when malformed.
Status ApplyUint64Knob(const char* name, const char* what, uint64_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return Status::Ok();
  }
  Result<uint64_t> v = ParseUint64(env);
  if (!v.ok()) {
    return Status::Error(StatusCode::kConfig, "config: " + std::string(name) + "='" + env +
                                                  "' is not a valid " + what + " (" +
                                                  v.error() + ")");
  }
  *out = v.value();
  return Status::Ok();
}

bool ValidTraceRecordType(uint8_t type) {
  return type == wire::kTraceRecRequest || type == wire::kTraceRecResponse;
}

bool ValidReportsRecordType(uint8_t type) {
  return type >= wire::kReportsRecObject && type <= wire::kReportsRecOpLogSegment;
}

}  // namespace

Result<ServiceOptions> ResolveServiceOptions(ServiceOptions base) {
  if (const char* env = std::getenv("OROCHI_LISTEN_ADDRESS")) {
    if (*env == '\0') {
      return Status::Error(StatusCode::kConfig,
                           "config: OROCHI_LISTEN_ADDRESS is set but empty");
    }
    base.listen_address = env;
  }
  if (const char* env = std::getenv("OROCHI_STATS_ADDRESS")) {
    // Unlike the listen address, empty here is a deliberate "off" — the knob doubles as
    // the enable switch — but a set-and-garbage value must still fail loudly, which the
    // stats Listen() does at Start().
    base.stats_address = env;
  }
  if (Status st = ApplyUint64Knob("OROCHI_MAX_INFLIGHT_BYTES", "byte bound",
                                  &base.max_in_flight_bytes);
      !st.ok()) {
    return st;
  }
  if (Status st = ApplyUint64Knob("OROCHI_ACK_INTERVAL", "record count",
                                  &base.ack_interval_records);
      !st.ok()) {
    return st;
  }
  uint64_t shards = base.shards_per_epoch;
  if (Status st = ApplyUint64Knob("OROCHI_SHARDS_PER_EPOCH", "shard count", &shards);
      !st.ok()) {
    return st;
  }
  if (shards == 0 || shards > UINT32_MAX) {
    return Status::Error(
        StatusCode::kConfig,
        "config: OROCHI_SHARDS_PER_EPOCH must be a positive shard count, got " +
            std::to_string(shards));
  }
  base.shards_per_epoch = static_cast<uint32_t>(shards);
  if (base.ack_interval_records == 0) {
    // A client bounded by max_in_flight_bytes waits on acks; never acking would wedge it.
    return Status::Error(
        StatusCode::kConfig,
        "config: OROCHI_ACK_INTERVAL must be positive (a bounded sender waits on acks)");
  }
  return base;
}

// One collector shard's in-progress stream for one epoch. Spool members are touched only
// by the handler currently attached (attachment is exclusive under AuditService::mu_).
struct AuditService::ShardStream {
  uint32_t shard_id = 0;
  bool attached = false;
  bool sealed = false;
  bool quarantined = false;
  std::string quarantine_reason;
  uint64_t attaches = 0;  // Guarded by mu_; attaches - 1 = reconnects of this stream.

  bool opened = false;
  std::string trace_path;
  std::string reports_path;
  // The spools: written like a local Collector::Flush / WriteReportsFile, so a sealed
  // pair is byte-identical to a local spill of the same traffic.
  TraceWriter trace_writer;
  wire::SectionWriter reports_writer;
  // Counts are written by the one attached handler but read by the /shards endpoint at
  // any time, hence atomics (plain loads/stores; attachment already orders the writes).
  std::atomic<uint64_t> trace_received{0};    // Records spooled — the client's resume point.
  std::atomic<uint64_t> reports_received{0};
  std::atomic<uint64_t> trace_bytes{0};   // Spool bytes written so far, header included.
  std::atomic<uint64_t> reports_bytes{0};
  std::atomic<uint64_t> unacked_bytes{0};  // In-flight bytes since the last ack sent.
};

struct AuditService::EpochState {
  uint64_t epoch = 0;
  std::map<uint32_t, std::unique_ptr<ShardStream>> shards;
  uint32_t sealed_count = 0;
  bool enqueued = false;  // Complete and handed to the audit thread.
};

AuditService::AuditService(const Application* app, AuditOptions audit_options,
                           InitialState initial, ServiceOptions options)
    : app_(app), audit_options_(std::move(audit_options)), options_(std::move(options)) {
  session_ = std::make_unique<AuditSession>(
      AuditSession::Open(app_, audit_options_, std::move(initial)));
}

AuditService::~AuditService() { Stop(); }

Status AuditService::Start() {
  Result<std::unique_ptr<Listener>> listener =
      ResolveTransport(options_.transport)->Listen(options_.listen_address);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener.value());
  address_ = listener_->address();
  if (!options_.stats_address.empty()) {
    stats_server_ = std::make_unique<obs::StatsServer>();
    stats_server_->Handle("/metrics", "text/plain; version=0.0.4", [] {
      return obs::MetricsRegistry::Default()->TextExposition();
    });
    stats_server_->Handle("/metrics.json", "application/json", [] {
      return obs::MetricsRegistry::Default()->JsonExposition();
    });
    stats_server_->Handle("/epochs", "application/json", [this] { return EpochsJson(); });
    stats_server_->Handle("/shards", "application/json", [this] { return ShardsJson(); });
    // The stats endpoint always rides the production transport: the main listener may sit
    // behind a FaultInjectingTransport in tests, and a scraper must not eat its faults.
    if (Status st = stats_server_->Start(options_.stats_address); !st.ok()) {
      stats_server_.reset();
      listener_->Close();
      listener_.reset();
      return st;
    }
    stats_address_ = stats_server_->address();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  audit_thread_ = std::thread([this] { AuditLoop(); });
  return Status::Ok();
}

void AuditService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return;
    }
    stopping_ = true;
    // Shut the live connections down under the lock: a pointer still in the set is
    // owned by a handler that cannot deregister (and free it) until we release mu_.
    for (Connection* conn : live_connections_) {
      conn->Shutdown();  // Unblocks handlers waiting in ReadSome.
    }
  }
  cv_.notify_all();
  listener_->Close();
  accept_thread_.join();
  {
    // Handlers run detached; wait for each to deregister on its way out.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return live_connections_.empty(); });
  }
  audit_thread_.join();
  if (stats_server_ != nullptr) {
    // Last so an operator can scrape the final counters right up to the join above.
    stats_server_->Stop();
  }
}

ServiceStats AuditService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AuditService::AcceptLoop() {
  while (true) {
    Result<std::unique_ptr<Connection>> conn = listener_->Accept();
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    if (!conn.ok()) {
      // A transient accept failure must not spin the loop hot.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    stats_.connections_accepted++;
    ServiceMetrics::Get()->connections->Inc();
    Connection* raw = conn.value().get();
    live_connections_.insert(raw);
    lock.unlock();
    std::thread([this, owned = std::move(conn).value()]() mutable {
      HandleConnection(std::move(owned));
    }).detach();
  }
}

Status AuditService::SpoolRecord(ShardStream* stream, bool is_trace,
                                 const net::RecordFrame& rec) {
  const uint64_t frame_bytes = wire::kRecordFrameBytesV2 + rec.payload.size();
  if (is_trace) {
    if (Status st = stream->trace_writer.AppendRecord(rec.record_type, rec.payload);
        !st.ok()) {
      return st;
    }
    stream->trace_received++;
    stream->trace_bytes = stream->trace_writer.bytes();
  } else {
    if (Status st = stream->reports_writer.Append(rec.record_type, rec.payload);
        !st.ok()) {
      return st;
    }
    stream->reports_received++;
    stream->reports_bytes = stream->reports_writer.bytes();
  }
  ServiceMetrics::Get()->records_spooled->Inc();
  ServiceMetrics::Get()->bytes_spooled->Inc(frame_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.records_spooled++;
  stats_.bytes_spooled += frame_bytes;
  return Status::Ok();
}

Status AuditService::SealShard(EpochState* epoch, ShardStream* stream,
                               const net::EndEpochFrame& end) {
  if (end.trace_records != stream->trace_received ||
      end.reports_records != stream->reports_received) {
    // The client claims totals the spool does not have: either direction means records
    // were lost or invented between collector and verifier, so the shard is quarantined —
    // the epoch never seals and the verdict wait reports it, never a silent accept.
    std::string reason =
        "net: shard " + std::to_string(stream->shard_id) + " of epoch " +
        std::to_string(epoch->epoch) + " quarantined: end-epoch totals " +
        std::to_string(end.trace_records) + "/" + std::to_string(end.reports_records) +
        " do not match spooled " + std::to_string(stream->trace_received) + "/" +
        std::to_string(stream->reports_received);
    ServiceMetrics::Get()->shards_quarantined->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    stream->quarantined = true;
    stream->quarantine_reason = reason;
    stats_.shards_quarantined++;
    cv_.notify_all();
    return Status::Error(reason);
  }
  if (Status st = stream->trace_writer.Finish(); !st.ok()) {
    return st;
  }
  if (Status st = stream->reports_writer.Commit(); !st.ok()) {
    return st;
  }
  ServiceMetrics::Get()->shards_sealed->Inc();
  std::lock_guard<std::mutex> lock(mu_);
  stream->sealed = true;
  stats_.shards_sealed++;
  epoch->sealed_count++;
  if (!epoch->enqueued && epoch->sealed_count >= options_.shards_per_epoch) {
    epoch->enqueued = true;
    sealed_ready_.push_back(epoch->epoch);
    cv_.notify_all();
  }
  return Status::Ok();
}

Status AuditService::ServeStream(Connection* conn, net::FrameReader* reader,
                                 net::FrameWriter* writer, const net::HelloFrame& hello,
                                 EpochState* epoch, ShardStream* stream) {
  (void)conn;
  if (!stream->opened) {
    std::string base = options_.spool_dir + "/epoch_" + std::to_string(hello.epoch) +
                       "_shard_" + std::to_string(hello.shard_id);
    stream->trace_path = base + ".trace";
    stream->reports_path = base + ".reports";
    // The writers put the in-file headers (envelope, shard-info record) down from the
    // handshake, so what a client streams are pure data records.
    if (Status st =
            stream->trace_writer.Open(stream->trace_path, hello.shard_id, options_.env);
        !st.ok()) {
      return st;
    }
    if (Status st = stream->reports_writer.Open(options_.env, stream->reports_path,
                                                wire::Section::kReports);
        !st.ok()) {
      return st;
    }
    stream->trace_bytes = stream->trace_writer.bytes();
    stream->reports_bytes = stream->reports_writer.bytes();
    stream->opened = true;
  }

  net::HelloAckFrame ack;
  ack.trace_received = stream->trace_received;
  ack.reports_received = stream->reports_received;
  ack.sealed = stream->sealed ? 1 : 0;
  ack.max_in_flight_bytes = options_.max_in_flight_bytes;
  ack.ack_interval_records = options_.ack_interval_records;
  if (Status st = writer->Send(net::kFrameHelloAck, net::EncodeHelloAck(ack)); !st.ok()) {
    return st;
  }

  uint64_t since_ack = 0;
  uint64_t bytes_since_ack = 0;
  auto send_ack = [&]() {
    since_ack = 0;
    bytes_since_ack = 0;
    stream->unacked_bytes.store(0, std::memory_order_relaxed);
    net::AckFrame a;
    a.trace_received = stream->trace_received;
    a.reports_received = stream->reports_received;
    return writer->Send(net::kFrameAck, net::EncodeAck(a));
  };
  auto send_error = [&](net::ErrorCode code, const std::string& message) {
    net::ErrorFrame e;
    e.code = code;
    e.message = message;
    (void)writer->Send(net::kFrameError, net::EncodeError(e));
  };

  while (true) {
    uint8_t type = 0;
    std::string payload;
    Result<bool> next = reader->Next(&type, &payload);
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kCorruption) {
        // A frame that failed its CRC: tell the client, drop the connection, keep the
        // received counts — the record was never spooled and the resume re-sends it.
        ServiceMetrics::Get()->corrupt_frames->Inc();
        {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.corrupt_frames++;
        }
        send_error(net::ErrorCode::kCorruption, next.error());
      }
      return next.status();
    }
    if (!next.value()) {
      return Status::Ok();  // Clean close at a frame boundary.
    }
    ServiceMetrics::Get()->frames->Inc();
    switch (type) {
      case net::kFrameTraceRecord:
      case net::kFrameReportsRecord: {
        bool is_trace = (type == net::kFrameTraceRecord);
        Result<net::RecordFrame> rec = net::DecodeRecord(payload);
        if (!rec.ok()) {
          send_error(net::ErrorCode::kProtocol, rec.error());
          return rec.status();
        }
        bool type_ok = is_trace ? ValidTraceRecordType(rec.value().record_type)
                                : ValidReportsRecordType(rec.value().record_type);
        if (!type_ok) {
          std::string msg = "net: illegal record type " +
                            std::to_string(rec.value().record_type) + " in a " +
                            (is_trace ? std::string("trace") : std::string("reports")) +
                            " stream";
          send_error(net::ErrorCode::kProtocol, msg);
          return Status::Error(msg);
        }
        uint64_t expected = is_trace ? stream->trace_received : stream->reports_received;
        if (rec.value().index > expected) {
          std::string msg = "net: record index " + std::to_string(rec.value().index) +
                            " skips ahead of " + std::to_string(expected) +
                            " (gap in the stream)";
          send_error(net::ErrorCode::kProtocol, msg);
          return Status::Error(msg);
        }
        if (rec.value().index < expected) {
          // Resume overlap from a reconnected client: already spooled, skip exactly.
          ServiceMetrics::Get()->records_deduped->Inc();
          std::lock_guard<std::mutex> lock(mu_);
          stats_.records_deduped++;
        } else if (Status st = SpoolRecord(stream, is_trace, rec.value()); !st.ok()) {
          send_error(net::ErrorCode::kRetryable, st.error());
          return st;
        }
        since_ack++;
        bytes_since_ack += wire::kRecordFrameBytesV2 + payload.size();
        stream->unacked_bytes.store(bytes_since_ack, std::memory_order_relaxed);
        // Acks pace the client's flow control, so they must fire on bytes too: a few
        // huge records can hit the in-flight byte bound long before the record interval.
        bool byte_due = options_.max_in_flight_bytes > 0 &&
                        bytes_since_ack >= options_.max_in_flight_bytes / 2;
        if (since_ack >= options_.ack_interval_records || byte_due) {
          if (Status st = send_ack(); !st.ok()) {
            return st;
          }
        }
        break;
      }
      case net::kFrameEndEpoch: {
        Result<net::EndEpochFrame> end = net::DecodeEndEpoch(payload);
        if (!end.ok()) {
          send_error(net::ErrorCode::kProtocol, end.error());
          return end.status();
        }
        if (!stream->sealed) {
          if (Status st = SealShard(epoch, stream, end.value()); !st.ok()) {
            send_error(stream->quarantined ? net::ErrorCode::kProtocol
                                           : net::ErrorCode::kRetryable,
                       st.error());
            return st;
          }
        }
        if (Status st = send_ack(); !st.ok()) {
          return st;
        }
        net::EpochSealedFrame sealed;
        sealed.epoch = hello.epoch;
        if (Status st = writer->Send(net::kFrameEpochSealed, net::EncodeEpochSealed(sealed));
            !st.ok()) {
          return st;
        }
        break;  // The client closes once it has seen the seal.
      }
      default: {
        std::string msg = "net: unexpected frame type " + std::to_string(type) +
                          " from an attached shard stream";
        send_error(net::ErrorCode::kProtocol, msg);
        return Status::Error(msg);
      }
    }
  }
}

void AuditService::HandleConnection(std::unique_ptr<Connection> conn) {
  net::FrameReader reader(conn.get());
  net::FrameWriter writer(conn.get());
  auto send_error = [&](net::ErrorCode code, const std::string& message) {
    net::ErrorFrame e;
    e.code = code;
    e.message = message;
    (void)writer.Send(net::kFrameError, net::EncodeError(e));
  };
  auto deregister = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    live_connections_.erase(conn.get());
    cv_.notify_all();
  };

  uint8_t type = 0;
  std::string payload;
  Result<bool> first = reader.Next(&type, &payload);
  if (!first.ok() || !first.value() || type != net::kFrameHello) {
    if (first.ok() && first.value()) {
      send_error(net::ErrorCode::kProtocol, "net: expected a hello frame first");
    }
    deregister();
    return;
  }
  Result<net::HelloFrame> hello = net::DecodeHello(payload);
  if (!hello.ok()) {
    send_error(net::ErrorCode::kProtocol, hello.error());
    deregister();
    return;
  }
  if (hello.value().format_version != wire::kFormatVersion) {
    send_error(net::ErrorCode::kProtocol,
               "net: peer speaks wire format v" +
                   std::to_string(hello.value().format_version) + ", this service spools v" +
                   std::to_string(wire::kFormatVersion));
    deregister();
    return;
  }
  if (hello.value().shard_id == 0) {
    send_error(net::ErrorCode::kProtocol, "net: shard id 0 is reserved (unsharded spill)");
    deregister();
    return;
  }

  EpochState* epoch = nullptr;
  ShardStream* stream = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      send_error(net::ErrorCode::kRetryable, "net: audit service stopping");
      deregister();
      return;
    }
    std::unique_ptr<EpochState>& slot = epochs_[hello.value().epoch];
    if (slot == nullptr) {
      slot = std::make_unique<EpochState>();
      slot->epoch = hello.value().epoch;
    }
    epoch = slot.get();
    std::unique_ptr<ShardStream>& sslot = epoch->shards[hello.value().shard_id];
    if (sslot == nullptr) {
      if (epoch->enqueued) {
        lock.unlock();
        send_error(net::ErrorCode::kProtocol,
                   "net: epoch " + std::to_string(hello.value().epoch) +
                       " is already complete; a new shard cannot join it");
        deregister();
        return;
      }
      sslot = std::make_unique<ShardStream>();
      sslot->shard_id = hello.value().shard_id;
    }
    stream = sslot.get();
    if (stream->quarantined) {
      std::string reason = stream->quarantine_reason;
      lock.unlock();
      send_error(net::ErrorCode::kProtocol, reason);
      deregister();
      return;
    }
    if (stream->attached) {
      // A reconnecting client can race the teardown of its dead predecessor, whose
      // handler is still draining; give the detach a moment before bouncing the client.
      cv_.wait_for(lock, std::chrono::seconds(2),
                   [&] { return !stream->attached || stopping_; });
    }
    if (stream->attached || stopping_) {
      lock.unlock();
      send_error(net::ErrorCode::kRetryable, "net: shard stream busy; reconnect");
      deregister();
      return;
    }
    stream->attached = true;
    stream->attaches++;
    if (stream->attaches > 1) {
      ServiceMetrics::Get()->shard_reattaches->Inc();
    }
  }

  (void)ServeStream(conn.get(), &reader, &writer, hello.value(), epoch, stream);

  {
    // Notify while still holding mu_: the moment the erase is visible to a Stop()
    // waiting for live_connections_ to drain, the service may be destroyed — a notify
    // outside the lock could touch a dead condition variable.
    std::lock_guard<std::mutex> lock(mu_);
    stream->attached = false;
    live_connections_.erase(conn.get());
    cv_.notify_all();
  }
}

void AuditService::AuditLoop() {
  while (true) {
    uint64_t epoch_id = 0;
    std::vector<ShardEpochFiles> files;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !sealed_ready_.empty(); });
      if (sealed_ready_.empty()) {
        return;  // Stopping with nothing left to audit.
      }
      // Epochs audit in ascending order of completion: each accepted final state seeds
      // the next epoch, the paper's steady state between audit periods.
      auto it = std::min_element(sealed_ready_.begin(), sealed_ready_.end());
      epoch_id = *it;
      sealed_ready_.erase(it);
      EpochState* epoch = epochs_.at(epoch_id).get();
      for (const auto& [shard_id, stream] : epoch->shards) {
        if (stream->sealed) {
          files.push_back(ShardEpochFiles{stream->trace_path, stream->reports_path});
        }
      }
    }
    // The audit runs outside the lock: ingestion of later epochs proceeds concurrently.
    Result<AuditResult> verdict = session_->FeedShardedEpoch(files);
    ServiceMetrics::Get()->epochs_audited->Inc();
    if (verdict.ok() && verdict.value().accepted) {
      ServiceMetrics::Get()->epochs_accepted->Inc();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.epochs_audited++;
      if (verdict.ok() && verdict.value().accepted) {
        stats_.epochs_accepted++;
      }
      verdicts_.emplace(epoch_id, std::move(verdict));
    }
    cv_.notify_all();
  }
}

std::string AuditService::EpochsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"epochs\": [";
  bool first = true;
  for (const auto& [epoch_id, epoch] : epochs_) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"epoch\": " + std::to_string(epoch_id);
    out += ", \"shards_sealed\": " + std::to_string(epoch->sealed_count);
    out += ", \"shards_expected\": " + std::to_string(options_.shards_per_epoch);
    std::string state = epoch->enqueued ? "auditing" : "ingesting";
    for (const auto& [shard_id, stream] : epoch->shards) {
      if (stream->quarantined) {
        state = "quarantined";
      }
    }
    auto vit = verdicts_.find(epoch_id);
    if (vit != verdicts_.end()) {
      if (!vit->second.ok()) {
        state = "error";
        out += ", \"error\": \"" + obs::JsonEscape(vit->second.error()) + "\"";
        // Retry once the spool is restored ("io") or fix the verifier first ("config").
        out += ClassifyAuditOutcome(vit->second) == AuditOutcome::kConfigError
                   ? ", \"error_class\": \"config\""
                   : ", \"error_class\": \"io\"";
      } else {
        const AuditResult& v = vit->second.value();
        state = v.accepted ? "accepted" : "rejected";
        if (!v.accepted) {
          out += ", \"reason\": \"" + obs::JsonEscape(v.reason) + "\"";
        }
        out += ", \"phases\": " + v.stats.phases.Json();
        out += ", \"audit\": {\"num_groups\": " + std::to_string(v.stats.num_groups) +
               ", \"ops_checked\": " + std::to_string(v.stats.ops_checked) +
               ", \"db_selects_issued\": " + std::to_string(v.stats.db_selects_issued) +
               ", \"db_selects_deduped\": " + std::to_string(v.stats.db_selects_deduped) +
               ", \"checkpoint_chunks_reused\": " +
               std::to_string(v.stats.checkpoint_chunks_reused) + "}";
      }
    }
    out += ", \"state\": \"" + state + "\"}";
  }
  out += "]}";
  return out;
}

std::string AuditService::ShardsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"shards\": [";
  bool first = true;
  for (const auto& [epoch_id, epoch] : epochs_) {
    for (const auto& [shard_id, stream] : epoch->shards) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "{\"epoch\": " + std::to_string(epoch_id);
      out += ", \"shard\": " + std::to_string(shard_id);
      out += std::string(", \"attached\": ") + (stream->attached ? "true" : "false");
      out += std::string(", \"sealed\": ") + (stream->sealed ? "true" : "false");
      out += ", \"attaches\": " + std::to_string(stream->attaches);
      out += ", \"trace_records\": " +
             std::to_string(stream->trace_received.load(std::memory_order_relaxed));
      out += ", \"reports_records\": " +
             std::to_string(stream->reports_received.load(std::memory_order_relaxed));
      out += ", \"trace_bytes\": " +
             std::to_string(stream->trace_bytes.load(std::memory_order_relaxed));
      out += ", \"reports_bytes\": " +
             std::to_string(stream->reports_bytes.load(std::memory_order_relaxed));
      out += ", \"unacked_bytes\": " +
             std::to_string(stream->unacked_bytes.load(std::memory_order_relaxed));
      out += std::string(", \"quarantined\": ") + (stream->quarantined ? "true" : "false");
      if (stream->quarantined) {
        out += ", \"quarantine_reason\": \"" + obs::JsonEscape(stream->quarantine_reason) +
               "\"";
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

Result<AuditResult> AuditService::WaitEpochVerdict(uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = verdicts_.find(epoch);
    if (it != verdicts_.end()) {
      return it->second;
    }
    auto eit = epochs_.find(epoch);
    if (eit != epochs_.end()) {
      for (const auto& [shard_id, stream] : eit->second->shards) {
        if (stream->quarantined) {
          return Result<AuditResult>::Error(stream->quarantine_reason);
        }
      }
    }
    if (stopping_) {
      return Result<AuditResult>::Error("net: audit service stopped before epoch " +
                                        std::to_string(epoch) + " had a verdict");
    }
    cv_.wait(lock);
  }
}

}  // namespace orochi

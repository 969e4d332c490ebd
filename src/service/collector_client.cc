#include "src/service/collector_client.h"

#include <deque>

#include "src/objects/wire_format.h"
#include "src/obs/metrics.h"

namespace orochi {

namespace {

// Collector-side instruments: the flow-control stalls live here (the client is the one
// that waits), the service mirrors the ingest side.
struct ClientMetrics {
  obs::Counter* records_sent;
  obs::Counter* bytes_sent;
  obs::Counter* reconnects;
  obs::Counter* records_resumed;
  obs::Counter* acks;
  obs::Counter* backpressure_stalls;

  static ClientMetrics* Get() {
    static ClientMetrics* const m = [] {
      auto* r = obs::MetricsRegistry::Default();
      auto* out = new ClientMetrics();
      out->records_sent = r->GetCounter("orochi_client_records_sent_total",
                                        "records streamed to the audit service");
      out->bytes_sent = r->GetCounter("orochi_client_bytes_sent_total",
                                      "wire bytes streamed to the audit service");
      out->reconnects = r->GetCounter("orochi_client_reconnects_total",
                                      "re-dial attempts after a transient failure");
      out->records_resumed = r->GetCounter(
          "orochi_client_records_resumed_total",
          "records a resume handshake reported already spooled (skipped, not re-sent)");
      out->acks = r->GetCounter("orochi_client_acks_received_total",
                                "ack frames received from the service");
      out->backpressure_stalls = r->GetCounter(
          "orochi_client_backpressure_stalls_total",
          "sends that blocked on acks at the service's in-flight byte bound");
      return out;
    }();
    return m;
  }
};

// An Error frame from the service, mapped onto the audit taxonomy: retryable service
// states and corruption (the frame was dropped, a resume re-sends it) are transient;
// protocol errors are permanent — retrying the same bytes cannot succeed.
Status ServiceError(const net::ErrorFrame& e) {
  switch (e.code) {
    case net::ErrorCode::kRetryable:
    case net::ErrorCode::kCorruption:
      return Status::Error(StatusCode::kTransient, e.message);
    case net::ErrorCode::kProtocol:
      break;
  }
  return Status::Error(e.message);
}

}  // namespace

Status CollectorClient::RunAttempt(
    uint64_t epoch, uint32_t shard_id,
    const std::vector<std::pair<uint8_t, std::string>>& trace_records,
    const std::vector<std::pair<uint8_t, std::string>>& reports_records, bool* sealed) {
  Result<std::unique_ptr<Connection>> dial = transport_->Connect(address_);
  if (!dial.ok()) {
    return dial.status();
  }
  std::unique_ptr<Connection> conn = std::move(dial.value());
  net::FrameReader reader(conn.get());
  net::FrameWriter writer(conn.get());

  net::HelloFrame hello;
  hello.format_version = wire::kFormatVersion;
  hello.shard_id = shard_id;
  hello.epoch = epoch;
  if (Status st = writer.Send(net::kFrameHello, net::EncodeHello(hello)); !st.ok()) {
    return st;
  }
  uint8_t type = 0;
  std::string payload;
  Result<bool> next = reader.Next(&type, &payload);
  if (!next.ok()) {
    return next.status();
  }
  if (!next.value()) {
    return Status::Error(StatusCode::kTransient,
                         "net: service closed before answering the hello");
  }
  if (type == net::kFrameError) {
    Result<net::ErrorFrame> e = net::DecodeError(payload);
    return e.ok() ? ServiceError(e.value()) : e.status();
  }
  if (type != net::kFrameHelloAck) {
    return Status::Error("net: expected a hello-ack, got frame type " +
                         std::to_string(type));
  }
  Result<net::HelloAckFrame> hello_ack = net::DecodeHelloAck(payload);
  if (!hello_ack.ok()) {
    return hello_ack.status();
  }
  const net::HelloAckFrame& resume = hello_ack.value();
  if (resume.sealed != 0) {
    // A previous attempt's EndEpoch landed; the epoch is already sealed server-side.
    *sealed = true;
    return Status::Ok();
  }
  if (resume.trace_received > trace_records.size() ||
      resume.reports_received > reports_records.size()) {
    return Status::Error("net: service claims more records than this epoch has (" +
                         std::to_string(resume.trace_received) + "/" +
                         std::to_string(resume.reports_received) + ")");
  }
  stats_.records_resumed += resume.trace_received + resume.reports_received;
  ClientMetrics::Get()->records_resumed->Inc(resume.trace_received +
                                             resume.reports_received);

  // Flow control: sizes of wire frames not yet covered by an Ack, oldest first. The
  // client stalls on acks once the unacked bytes exceed the service's advertised bound.
  const uint64_t bound = resume.max_in_flight_bytes;
  std::deque<uint64_t> unacked_sizes;
  uint64_t unacked_bytes = 0;
  uint64_t acked_records = resume.trace_received + resume.reports_received;

  // Consumes one service frame while sending. *done set on EpochSealed.
  auto pump_one = [&](bool* done) -> Status {
    uint8_t t = 0;
    std::string p;
    Result<bool> got = reader.Next(&t, &p);
    if (!got.ok()) {
      return got.status();
    }
    if (!got.value()) {
      return Status::Error(StatusCode::kTransient,
                           "net: service closed before sealing the epoch");
    }
    switch (t) {
      case net::kFrameAck: {
        Result<net::AckFrame> a = net::DecodeAck(p);
        if (!a.ok()) {
          return a.status();
        }
        stats_.acks_received++;
        ClientMetrics::Get()->acks->Inc();
        uint64_t total = a.value().trace_received + a.value().reports_received;
        while (acked_records < total && !unacked_sizes.empty()) {
          unacked_bytes -= unacked_sizes.front();
          unacked_sizes.pop_front();
          acked_records++;
        }
        acked_records = total;
        return Status::Ok();
      }
      case net::kFrameEpochSealed: {
        Result<net::EpochSealedFrame> s = net::DecodeEpochSealed(p);
        if (!s.ok()) {
          return s.status();
        }
        if (s.value().epoch != epoch) {
          return Status::Error("net: service sealed epoch " +
                               std::to_string(s.value().epoch) + ", expected " +
                               std::to_string(epoch));
        }
        *done = true;
        return Status::Ok();
      }
      case net::kFrameError: {
        Result<net::ErrorFrame> e = net::DecodeError(p);
        return e.ok() ? ServiceError(e.value()) : e.status();
      }
      default:
        return Status::Error("net: unexpected frame type " + std::to_string(t) +
                             " from the service");
    }
  };

  auto send_section = [&](uint8_t frame_type,
                          const std::vector<std::pair<uint8_t, std::string>>& records,
                          uint64_t from) -> Status {
    for (uint64_t i = from; i < records.size(); i++) {
      if (bound > 0 && unacked_bytes > bound) {
        ClientMetrics::Get()->backpressure_stalls->Inc();
      }
      while (bound > 0 && unacked_bytes > bound) {
        bool done = false;
        if (Status st = pump_one(&done); !st.ok()) {
          return st;
        }
        if (done) {
          return Status::Error("net: service sealed the epoch before end-epoch");
        }
      }
      net::RecordFrame rf;
      rf.index = i;
      rf.record_type = records[i].first;
      rf.payload = records[i].second;
      std::string encoded = net::EncodeRecord(rf);
      if (Status st = writer.Send(frame_type, encoded); !st.ok()) {
        return st;
      }
      uint64_t frame_bytes = wire::kRecordFrameBytesV2 + encoded.size();
      stats_.records_sent++;
      stats_.bytes_sent += frame_bytes;
      ClientMetrics::Get()->records_sent->Inc();
      ClientMetrics::Get()->bytes_sent->Inc(frame_bytes);
      unacked_sizes.push_back(frame_bytes);
      unacked_bytes += frame_bytes;
    }
    return Status::Ok();
  };

  if (Status st = send_section(net::kFrameTraceRecord, trace_records,
                               resume.trace_received);
      !st.ok()) {
    return st;
  }
  if (Status st = send_section(net::kFrameReportsRecord, reports_records,
                               resume.reports_received);
      !st.ok()) {
    return st;
  }
  net::EndEpochFrame end;
  end.trace_records = trace_records.size();
  end.reports_records = reports_records.size();
  if (Status st = writer.Send(net::kFrameEndEpoch, net::EncodeEndEpoch(end)); !st.ok()) {
    return st;
  }
  while (!*sealed) {
    if (Status st = pump_one(sealed); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status CollectorClient::StreamEpoch(uint64_t epoch, Collector* collector,
                                    const Reports& reports) {
  if (collector->shard_id() == 0) {
    return Status::Error("net: a streaming collector needs a nonzero shard id");
  }
  Trace trace = collector->TakeTrace();
  std::vector<std::pair<uint8_t, std::string>> trace_records;
  trace_records.reserve(trace.events.size());
  for (const TraceEvent& event : trace.events) {
    uint8_t type = 0;
    std::string payload;
    EncodeTraceEventRecord(event, &type, &payload);
    trace_records.emplace_back(type, std::move(payload));
  }
  std::vector<std::pair<uint8_t, std::string>> reports_records;
  ForEachReportsRecord(reports, [&](uint8_t type, const std::string& payload) {
    reports_records.emplace_back(type, payload);
  });

  Status last = Status::Ok();
  bool sealed = false;
  for (int attempt = 0; attempt <= max_reconnects_; attempt++) {
    if (attempt > 0) {
      stats_.reconnects++;
      ClientMetrics::Get()->reconnects->Inc();
    }
    last = RunAttempt(epoch, collector->shard_id(), trace_records, reports_records,
                      &sealed);
    if (last.ok() && sealed) {
      return Status::Ok();
    }
    if (!last.ok() && last.code() != StatusCode::kTransient) {
      break;  // Protocol-level: re-dialing the same bytes cannot succeed.
    }
  }
  // Out of attempts (or refused): give the epoch's traffic back to the collector so
  // nothing recorded is lost — a later StreamEpoch or Flush carries it.
  collector->Restore(std::move(trace));
  return last.ok() ? Status::Error(
                         StatusCode::kTransient,
                         "net: ran out of reconnect attempts before the epoch sealed")
                   : last;
}

}  // namespace orochi

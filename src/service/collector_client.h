// Collector-side sender: wraps a Collector and streams one closed epoch (trace +
// executor reports) to a live AuditService over the framed protocol of src/net/frame.h,
// instead of spilling files for an offline handoff.
//
// Reliability contract:
//   - Records carry explicit indexes; after a disconnect the client reconnects, learns
//     the service's received counts from the HelloAck, and re-sends from exactly there —
//     duplicates are skipped by index, nothing is lost or double-spooled.
//   - Backpressure: the client keeps at most the service-advertised max-in-flight bytes
//     unacked on the wire, waiting on Ack frames past that bound.
//   - When every reconnect attempt is exhausted the recorded trace is restored into the
//     collector (Collector::Restore) so no recorded traffic is lost, and the error is
//     kTransient when the failure was a disconnect — operators retry, they do not treat
//     a network flap as tamper evidence.
#ifndef SRC_SERVICE_COLLECTOR_CLIENT_H_
#define SRC_SERVICE_COLLECTOR_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/frame.h"
#include "src/net/transport.h"
#include "src/objects/reports.h"
#include "src/server/collector.h"

namespace orochi {

struct ClientStats {
  uint64_t records_sent = 0;    // Data records put on the wire (re-sends included).
  uint64_t bytes_sent = 0;      // Frame bytes put on the wire.
  uint64_t reconnects = 0;      // Successful re-handshakes after a failure.
  uint64_t records_resumed = 0; // Records a resume point let the client skip re-sending.
  uint64_t acks_received = 0;
};

class CollectorClient {
 public:
  // `address` as in Transport ("tcp:HOST:PORT" / "unix:/path"); `transport` nullptr =
  // the production sockets, tests pass a FaultInjectingTransport. `max_reconnects` bounds
  // how many times one StreamEpoch call re-dials after a transient failure.
  explicit CollectorClient(std::string address, Transport* transport = nullptr,
                           int max_reconnects = 8)
      : address_(std::move(address)),
        transport_(ResolveTransport(transport)),
        max_reconnects_(max_reconnects) {}

  // Closes `collector`'s current epoch (TakeTrace) and streams it with `reports` to the
  // service as epoch `epoch`, blocking until the service confirms the seal. On failure
  // the taken trace is restored into the collector and an error returns: kTransient when
  // retrying later can succeed, permanent (kError) for protocol errors. The collector's
  // shard id stamps the stream and must be nonzero.
  Status StreamEpoch(uint64_t epoch, Collector* collector, const Reports& reports);

  const ClientStats& stats() const { return stats_; }

 private:
  // One connection attempt: handshake, send everything not yet acked, wait for the seal.
  // A kTransient error (or `false` with no seal) means reconnect and resume.
  Status RunAttempt(uint64_t epoch, uint32_t shard_id,
                    const std::vector<std::pair<uint8_t, std::string>>& trace_records,
                    const std::vector<std::pair<uint8_t, std::string>>& reports_records,
                    bool* sealed);

  const std::string address_;
  Transport* const transport_;
  const int max_reconnects_;
  ClientStats stats_;
};

}  // namespace orochi

#endif  // SRC_SERVICE_COLLECTOR_CLIENT_H_

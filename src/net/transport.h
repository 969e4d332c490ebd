// Socket transport between trace collectors and the audit service (the paper's §2/§6
// deployment: collectors next to untrusted web servers, a trusted verifier elsewhere).
// Mirrors the Env design of src/common/io_env.h: production code goes through
// Transport::Default() (POSIX TCP + Unix-domain sockets); tests wrap it in a
// FaultInjectingTransport (src/net/fault_transport.h) to replay deterministic schedules
// of disconnects, short writes, and in-flight corruption.
//
// Addresses are strings so they can ride in env knobs:
//   "tcp:HOST:PORT"  — IPv4 loopback/numeric host; PORT 0 binds an ephemeral port and
//                      Listener::address() reports the one actually bound.
//   "unix:/path"     — Unix-domain stream socket at /path (removed and rebound on listen).
//
// Error taxonomy (shared with the file layer, so AuditOutcome classification just works):
//   - disconnects, resets, and reads cut off mid-stream are StatusCode::kTransient
//     ("net: ..."): the peer can reconnect and resume.
//   - malformed addresses and bind/listen failures are permanent ("net: ...").
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"

namespace orochi {

// One bidirectional byte stream. Implementations must be usable from two threads at once
// only in the one-reader + one-writer pattern; Shutdown may be called from any thread and
// unblocks a pending read.
class Connection {
 public:
  virtual ~Connection() = default;

  // One best-effort read of up to `n` bytes. Returns the count read; 0 means the peer
  // closed cleanly. Errors are kTransient when they amount to a disconnect.
  virtual Result<size_t> ReadSome(char* buf, size_t n) = 0;
  // Writes all `n` bytes or errors (kTransient on disconnect mid-write).
  virtual Status WriteAll(const char* data, size_t n) = 0;
  Status WriteAll(const std::string& data) { return WriteAll(data.data(), data.size()); }
  // Half-kills both directions: a blocked ReadSome returns, later writes fail.
  virtual void Shutdown() = 0;
  // Human-readable peer name for error messages ("tcp:127.0.0.1:4711", "unix:/run/x").
  virtual const std::string& peer() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  // Blocks for the next inbound connection. After Close(), returns an error.
  virtual Result<std::unique_ptr<Connection>> Accept() = 0;
  // Unblocks a pending Accept and stops accepting. Idempotent.
  virtual void Close() = 0;
  // The address actually bound — resolves "tcp:...:0" to the real ephemeral port, so a
  // test (or a daemon printing its address) can hand it to clients.
  virtual const std::string& address() const = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> Listen(const std::string& address) = 0;
  virtual Result<std::unique_ptr<Connection>> Connect(const std::string& address) = 0;

  // The production POSIX socket transport; a process-lifetime singleton.
  static Transport* Default();
};

// nullptr resolves to Transport::Default() — every transport-threaded API takes an
// optional Transport*.
inline Transport* ResolveTransport(Transport* t) {
  return t != nullptr ? t : Transport::Default();
}

}  // namespace orochi

#endif  // SRC_NET_TRANSPORT_H_

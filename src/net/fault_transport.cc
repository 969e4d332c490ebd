#include "src/net/fault_transport.h"

#include <utility>

#include "src/common/hash.h"

namespace orochi {

namespace {

// A faulted connection. Once an injected disconnect fires the connection is dead for
// good — every later operation fails the same way, exactly like a real reset socket.
class FaultConnection : public Connection {
 public:
  FaultConnection(FaultInjectingTransport* owner, std::unique_ptr<Connection> base)
      : owner_(owner), base_(std::move(base)) {}

  Result<size_t> ReadSome(char* buf, size_t n) override {
    if (dead_.load()) {
      return DeadError("recv");
    }
    if (owner_->Draw() < owner_->options().p_disconnect_read) {
      Die("recv");
      return DeadError("recv");
    }
    return base_->ReadSome(buf, n);
  }

  Status WriteAll(const char* data, size_t n) override {
    if (dead_.load()) {
      return DeadError("send");
    }
    const NetFaultOptions& o = owner_->options();
    if (owner_->TakeKillSlot()) {
      Die("send");
      return DeadError("send");
    }
    double d = owner_->Draw();
    if (d < o.p_disconnect_write) {
      Die("send");
      return DeadError("send");
    }
    d -= o.p_disconnect_write;
    if (d < o.p_short_write && n > 1) {
      // A strict prefix reaches the wire, then the connection dies — the receiver sees a
      // frame cut off mid-stream, which must classify as retryable, never tamper.
      size_t prefix = 1 + static_cast<size_t>(
                              Mix64(owner_->options().seed ^ (n * 0x9e3779b97f4a7c15ull)) %
                              (n - 1));
      (void)base_->WriteAll(data, prefix);
      Die("send");
      return DeadError("send (short write, " + std::to_string(prefix) + " of " +
                       std::to_string(n) + " bytes landed)");
    }
    d -= o.p_short_write;
    if (d < o.p_corrupt_write && n > 0) {
      // One byte flips in flight; the full buffer still lands, so the receiver's frame
      // CRC — not a length check — must catch it.
      owner_->CountCorruption();
      std::string copy(data, n);
      size_t at = static_cast<size_t>(
          Mix64(owner_->options().seed ^ (n + 0x517cc1b727220a95ull)) % n);
      copy[at] = static_cast<char>(copy[at] ^ 0x20);
      return base_->WriteAll(copy.data(), copy.size());
    }
    return base_->WriteAll(data, n);
  }

  void Shutdown() override { base_->Shutdown(); }

  const std::string& peer() const override { return base_->peer(); }

 private:
  Status DeadError(const std::string& op) {
    return Status::Error(StatusCode::kTransient,
                         "net: injected disconnect during " + op + " to " + base_->peer());
  }

  void Die(const char* op) {
    (void)op;
    dead_.store(true);
    owner_->CountDisconnect();
    // Kill the real socket too, so the un-faulted peer observes a genuine disconnect
    // instead of a connection that silently went quiet.
    base_->Shutdown();
  }

  FaultInjectingTransport* owner_;
  std::unique_ptr<Connection> base_;
  std::atomic<bool> dead_{false};
};

}  // namespace

double FaultInjectingTransport::Draw() {
  uint64_t index = op_index_.fetch_add(1);
  uint64_t bits = Mix64(options_.seed ^ Mix64(index + 0x2545f4914f6cdd1dull));
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);  // 53-bit mantissa.
}

bool FaultInjectingTransport::TakeKillSlot() {
  if (options_.disconnect_after_writes == NetFaultOptions::kNever) {
    return false;
  }
  // Exactly one write observes the 1 -> 0 transition; later writes go negative and pass
  // through (the connection that took the kill is already dead).
  return remaining_writes_.fetch_sub(1) == 0;
}

Result<std::unique_ptr<Connection>> FaultInjectingTransport::Connect(
    const std::string& address) {
  Result<std::unique_ptr<Connection>> base = base_->Connect(address);
  if (!base.ok()) {
    return base;
  }
  return Result<std::unique_ptr<Connection>>(
      std::make_unique<FaultConnection>(this, std::move(base.value())));
}

}  // namespace orochi

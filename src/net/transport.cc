#include "src/net/transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <utility>

namespace orochi {

namespace {

std::string Errno(const std::string& what) { return what + ": " + std::strerror(errno); }

// A disconnect-shaped socket error: the peer can reconnect and resume, so it is
// transient like a retryable file read.
Status TransientNetError(const std::string& detail) {
  return Status::Error(StatusCode::kTransient, "net: " + detail);
}

struct ParsedAddress {
  bool is_unix = false;
  std::string host;  // tcp only
  uint16_t port = 0;  // tcp only
  std::string path;  // unix only
};

Result<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress out;
  if (address.compare(0, 5, "unix:") == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    if (out.path.empty()) {
      return Result<ParsedAddress>::Error("net: empty unix socket path in '" + address + "'");
    }
    sockaddr_un probe;
    if (out.path.size() >= sizeof(probe.sun_path)) {
      return Result<ParsedAddress>::Error("net: unix socket path too long in '" + address +
                                          "'");
    }
    return out;
  }
  if (address.compare(0, 4, "tcp:") == 0) {
    size_t colon = address.rfind(':');
    if (colon == 3 || colon == std::string::npos) {
      return Result<ParsedAddress>::Error("net: missing port in '" + address + "'");
    }
    out.host = address.substr(4, colon - 4);
    if (out.host.empty() || out.host == "localhost") {
      out.host = "127.0.0.1";
    }
    uint64_t port = 0;
    bool any = false;
    for (size_t i = colon + 1; i < address.size(); i++) {
      char c = address[i];
      if (c < '0' || c > '9' || port > 65535) {
        any = false;
        break;
      }
      port = port * 10 + static_cast<uint64_t>(c - '0');
      any = true;
    }
    if (!any || port > 65535) {
      return Result<ParsedAddress>::Error("net: invalid port in '" + address + "'");
    }
    out.port = static_cast<uint16_t>(port);
    return out;
  }
  return Result<ParsedAddress>::Error(
      "net: address '" + address + "' must look like tcp:HOST:PORT or unix:/path");
}

class SocketConnection : public Connection {
 public:
  SocketConnection(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

  ~SocketConnection() override {
    Shutdown();
    ::close(fd_);
  }

  Result<size_t> ReadSome(char* buf, size_t n) override {
    while (true) {
      ssize_t got = ::recv(fd_, buf, n, 0);
      if (got >= 0) {
        return static_cast<size_t>(got);
      }
      if (errno == EINTR) {
        continue;
      }
      return TransientNetError("recv from " + peer_ + ": " + std::strerror(errno));
    }
  }

  Status WriteAll(const char* data, size_t n) override {
    size_t sent = 0;
    while (sent < n) {
      // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE, not SIGPIPE.
      ssize_t got = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
      if (got < 0) {
        if (errno == EINTR) {
          continue;
        }
        return TransientNetError("send to " + peer_ + ": " + std::strerror(errno));
      }
      sent += static_cast<size_t>(got);
    }
    return Status::Ok();
  }

  void Shutdown() override { ::shutdown(fd_, SHUT_RDWR); }

  const std::string& peer() const override { return peer_; }

 private:
  const int fd_;
  const std::string peer_;
};

class SocketListener : public Listener {
 public:
  SocketListener(int fd, std::string address, std::string unix_path)
      : fd_(fd), address_(std::move(address)), unix_path_(std::move(unix_path)) {}

  ~SocketListener() override {
    Close();
    if (!unix_path_.empty()) {
      ::unlink(unix_path_.c_str());
    }
  }

  Result<std::unique_ptr<Connection>> Accept() override {
    while (true) {
      int fd = ::accept(fd_, nullptr, nullptr);
      if (fd >= 0) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return Result<std::unique_ptr<Connection>>(std::make_unique<SocketConnection>(
            fd, "peer-of-" + address_));
      }
      if (errno == EINTR) {
        continue;
      }
      return Result<std::unique_ptr<Connection>>::Error(
          Errno("net: accept on " + address_));
    }
  }

  void Close() override {
    // shutdown() unblocks a pending accept; close() alone does not on Linux.
    ::shutdown(fd_, SHUT_RDWR);
    if (!closed_) {
      closed_ = true;
      ::close(fd_);
    }
  }

  const std::string& address() const override { return address_; }

 private:
  const int fd_;
  const std::string address_;
  const std::string unix_path_;
  bool closed_ = false;
};

class PosixTransport : public Transport {
 public:
  Result<std::unique_ptr<Listener>> Listen(const std::string& address) override {
    Result<ParsedAddress> parsed = ParseAddress(address);
    if (!parsed.ok()) {
      return parsed.status();
    }
    const ParsedAddress& a = parsed.value();
    if (a.is_unix) {
      int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return Result<std::unique_ptr<Listener>>::Error(Errno("net: socket for " + address));
      }
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
      ::unlink(a.path.c_str());  // A stale socket file from a dead daemon blocks bind.
      if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0 ||
          ::listen(fd, 64) < 0) {
        Status st = Status::Error(Errno("net: bind/listen on " + address));
        ::close(fd);
        return st;
      }
      return Result<std::unique_ptr<Listener>>(
          std::make_unique<SocketListener>(fd, address, a.path));
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Result<std::unique_ptr<Listener>>::Error(Errno("net: socket for " + address));
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      return Result<std::unique_ptr<Listener>>::Error(
          "net: host '" + a.host + "' in '" + address + "' is not a numeric IPv4 address");
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0 ||
        ::listen(fd, 64) < 0) {
      Status st = Status::Error(Errno("net: bind/listen on " + address));
      ::close(fd);
      return st;
    }
    // Resolve the ephemeral port so "tcp:...:0" listeners can tell clients where they are.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      Status st = Status::Error(Errno("net: getsockname on " + address));
      ::close(fd);
      return st;
    }
    std::string actual = "tcp:" + a.host + ":" + std::to_string(ntohs(bound.sin_port));
    return Result<std::unique_ptr<Listener>>(
        std::make_unique<SocketListener>(fd, actual, ""));
  }

  Result<std::unique_ptr<Connection>> Connect(const std::string& address) override {
    Result<ParsedAddress> parsed = ParseAddress(address);
    if (!parsed.ok()) {
      return parsed.status();
    }
    const ParsedAddress& a = parsed.value();
    if (a.is_unix) {
      int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return Result<std::unique_ptr<Connection>>::Error(
            Errno("net: socket for " + address));
      }
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
        Status st = TransientNetError("connect to " + address + ": " +
                                      std::strerror(errno));
        ::close(fd);
        return st;
      }
      return Result<std::unique_ptr<Connection>>(
          std::make_unique<SocketConnection>(fd, address));
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Result<std::unique_ptr<Connection>>::Error(Errno("net: socket for " + address));
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      return Result<std::unique_ptr<Connection>>::Error(
          "net: host '" + a.host + "' in '" + address + "' is not a numeric IPv4 address");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      Status st = TransientNetError("connect to " + address + ": " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Result<std::unique_ptr<Connection>>(
        std::make_unique<SocketConnection>(fd, address));
  }
};

}  // namespace

Transport* Transport::Default() {
  static PosixTransport* transport = new PosixTransport();
  return transport;
}

}  // namespace orochi

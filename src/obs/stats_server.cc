#include "src/obs/stats_server.h"

#include <cstdio>
#include <utility>

namespace orochi {
namespace obs {

namespace {

// Requests are one line plus a few headers; anything past this is not a stats scrape.
constexpr size_t kMaxRequestBytes = 8192;

std::string StatusLine(int code) {
  switch (code) {
    case 200:
      return "HTTP/1.0 200 OK\r\n";
    case 400:
      return "HTTP/1.0 400 Bad Request\r\n";
    case 404:
      return "HTTP/1.0 404 Not Found\r\n";
    case 405:
      return "HTTP/1.0 405 Method Not Allowed\r\n";
    default:
      return "HTTP/1.0 500 Internal Server Error\r\n";
  }
}

void WriteResponse(Connection* conn, int code, const std::string& content_type,
                   const std::string& body) {
  char length[64];
  std::snprintf(length, sizeof(length), "Content-Length: %zu\r\n", body.size());
  std::string response = StatusLine(code) + "Content-Type: " + content_type + "\r\n" +
                         length + "Connection: close\r\n\r\n" + body;
  (void)conn->WriteAll(response);  // Best effort: a vanished scraper is not our problem.
}

}  // namespace

void StatsServer::Handle(std::string path, std::string content_type, Handler handler) {
  routes_[std::move(path)] = Route{std::move(content_type), std::move(handler)};
}

Status StatsServer::Start(const std::string& address, Transport* transport) {
  if (started_) {
    return Status::Error("obs: stats server already started");
  }
  auto listener = ResolveTransport(transport)->Listen(address);
  if (!listener.ok()) {
    return listener.status().Prefixed("obs: stats listen failed: ");
  }
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  stopping_ = false;
  thread_ = std::thread([this] { Serve(); });
  started_ = true;
  return Status::Ok();
}

void StatsServer::Stop() {
  if (!started_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (active_ != nullptr) {
      active_->Shutdown();
    }
  }
  listener_->Close();
  thread_.join();
  listener_.reset();
  started_ = false;
}

void StatsServer::Serve() {
  for (;;) {
    auto accepted = listener_->Accept();
    if (!accepted.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      continue;  // Transient accept failure (e.g. injected fault): keep serving.
    }
    std::unique_ptr<Connection> conn = std::move(accepted).value();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      active_ = conn.get();
    }
    HandleConnection(conn.get());
    conn->Shutdown();
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_ = nullptr;
    }
  }
}

void StatsServer::HandleConnection(Connection* conn) {
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    auto n = conn->ReadSome(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) {
      break;  // Peer vanished or closed before finishing the request line.
    }
    request.append(buf, n.value());
  }

  // Parse "METHOD SP TARGET SP VERSION" from the first line.
  const size_t eol = request.find_first_of("\r\n");
  const std::string line = eol == std::string::npos ? request : request.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (line.empty() || sp1 == std::string::npos || sp2 == std::string::npos ||
      sp2 == sp1 + 1 || line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    WriteResponse(conn, 400, "text/plain", "bad request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const size_t q = target.find('?'); q != std::string::npos) {
    target.resize(q);  // Route on the path; scrapers sometimes append cache-busters.
  }
  if (method != "GET") {
    WriteResponse(conn, 405, "text/plain", "method not allowed\n");
    return;
  }
  auto it = routes_.find(target);
  if (it == routes_.end()) {
    std::string known = "not found; endpoints:";
    for (const auto& [path, route] : routes_) {
      known += " " + path;
    }
    WriteResponse(conn, 404, "text/plain", known + "\n");
    return;
  }
  WriteResponse(conn, 200, it->second.content_type, it->second.handler());
}

}  // namespace obs
}  // namespace orochi

#include "dppr/obs/admin_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/obs/metrics.h"

namespace dppr::obs {
namespace {

/// Per-connection read/write deadline. An admin plane must never be wedged
/// by a half-open curl; a stuck peer costs at most this long, then the
/// serving thread moves on.
constexpr int kIoTimeoutSeconds = 2;

/// Upper bound on one request (request line + headers). Admin requests are
/// a few hundred bytes; anything larger is not a client we serve.
constexpr size_t kMaxRequestBytes = 8 * 1024;

void SetIoTimeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutSeconds;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone or timeout: best-effort, drop it
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int status, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

AdminHttpServer* AdminHttpServer::GlobalFromEnv() {
  static AdminHttpServer* server = []() -> AdminHttpServer* {
    const int64_t port = GetEnvInt("DPPR_ADMIN_PORT", -1);
    if (port < 0) return nullptr;
    DPPR_CHECK_LE(port, 65535);
    // Leaked on purpose: the admin plane serves until the process dies,
    // like the global registry and tracer it fronts.
    auto* s = new AdminHttpServer();
    s->Start(static_cast<uint16_t>(port));
    return s;
  }();
  return server;
}

AdminHttpServer::AdminHttpServer() {
  Handle("/metrics", "text/plain; version=0.0.4",
         [] { return MetricsRegistry::Global().RenderText(); });
  Handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
  Handle("/", "text/plain", [] {
    return std::string(
        "dppr admin plane\n/metrics  Prometheus text\n/healthz  liveness\n"
        "/statusz  placement, serving, slow queries (JSON)\n");
  });
  Handle("/statusz", "application/json", [this] {
    std::vector<std::pair<std::string, Handler>> sections;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sections = status_sections_;
    }
    std::string out = "{";
    for (size_t i = 0; i < sections.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + sections[i].first + "\":" + sections[i].second();
    }
    out += "}";
    return out;
  });
}

AdminHttpServer::~AdminHttpServer() { Stop(); }

void AdminHttpServer::Handle(std::string path, std::string content_type,
                             Handler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : handlers_) {
    if (entry.first == path) {
      entry.second = {std::move(content_type), std::move(fn)};
      return;
    }
  }
  handlers_.emplace_back(
      std::move(path),
      std::make_pair(std::move(content_type), std::move(fn)));
}

void AdminHttpServer::HandleStatus(std::string section, Handler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : status_sections_) {
    if (entry.first == section) {
      entry.second = std::move(fn);
      return;
    }
  }
  status_sections_.emplace_back(std::move(section), std::move(fn));
}

void AdminHttpServer::Start(uint16_t port) {
  DPPR_CHECK(!running());
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DPPR_CHECK_GE(listen_fd_, 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // The operator asked for an admin plane; running without one (port taken,
  // permissions) must be loud, not silent.
  DPPR_CHECK_EQ(
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  DPPR_CHECK_EQ(listen(listen_fd_, 16), 0);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  DPPR_CHECK_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &bound_len),
                0);
  port_ = ntohs(bound.sin_port);

  // Self-pipe shutdown, same pattern as TcpTransport's receive loop: Stop
  // writes one byte, the poll wakes, the thread exits.
  DPPR_CHECK_EQ(pipe(stop_fds_), 0);
  thread_ = std::thread([this] { Serve(); });
}

void AdminHttpServer::Stop() {
  if (!running()) return;
  const char byte = 1;
  ssize_t ignored = write(stop_fds_[1], &byte, 1);
  (void)ignored;
  thread_.join();
  close(stop_fds_[0]);
  close(stop_fds_[1]);
  stop_fds_[0] = stop_fds_[1] = -1;
  close(listen_fd_);
  listen_fd_ = -1;
}

void AdminHttpServer::Serve() {
  while (true) {
    pollfd fds[2];
    fds[0] = {stop_fds_[0], POLLIN, 0};
    fds[1] = {listen_fd_, POLLIN, 0};
    int ready = poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) return;
    if ((fds[1].revents & POLLIN) == 0) continue;
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // One connection at a time, handled inline: admin traffic is a scrape
    // every few seconds, and serialized handling means handlers never need
    // their own concurrency story beyond thread safety.
    SetIoTimeouts(fd);
    HandleConnection(fd);
    close(fd);
  }
}

std::string AdminHttpServer::Dispatch(const std::string& path,
                                      std::string& content_type) {
  Handler fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : handlers_) {
      if (entry.first == path) {
        content_type = entry.second.first;
        fn = entry.second.second;
        break;
      }
    }
  }
  if (!fn) return "";
  // Invoked outside mu_: a handler may itself register handlers, and slow
  // renders must not block Handle() calls from serving threads.
  return fn();
}

void AdminHttpServer::HandleConnection(int fd) {
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() > kMaxRequestBytes) return;
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // timeout, error, or close before a full request
    request.append(buf, static_cast<size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION. Query strings are not part of
  // the admin surface; strip them so `curl /metrics?foo` still resolves.
  const size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const size_t method_end = line.find(' ');
  if (method_end == std::string::npos) return;
  const std::string method = line.substr(0, method_end);
  const size_t path_end = line.find(' ', method_end + 1);
  if (path_end == std::string::npos) return;
  std::string path = line.substr(method_end + 1, path_end - method_end - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    WriteAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                              "GET only\n"));
    return;
  }
  std::string content_type;
  std::string body = Dispatch(path, content_type);
  if (content_type.empty()) {
    WriteAll(fd, HttpResponse(404, "Not Found", "text/plain",
                              "unknown path: " + path + "\n"));
    return;
  }
  WriteAll(fd, HttpResponse(200, "OK", content_type, body));
}

}  // namespace dppr::obs

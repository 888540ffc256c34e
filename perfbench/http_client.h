// Blocking keep-alive HTTP/1.1 client connection over loopback, speaking
// the subset net/http.h parses (every relview response has a
// Content-Length).

#ifndef RELVIEW_PERFBENCH_HTTP_CLIENT_H_
#define RELVIEW_PERFBENCH_HTTP_CLIENT_H_

#include <cerrno>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/http.h"

namespace relview {
namespace perfbench {

class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `request` (complete bytes) and reads one response into *body;
  /// returns the HTTP status, or -1 on a transport error. Reconnects once
  /// when the server closed the idle keep-alive socket.
  int Roundtrip(const std::string& request, std::string* body) {
    const int status = Once(request, body);
    return status >= 0 ? status : Once(request, body);
  }

 private:
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool EnsureOpen() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  int Once(const std::string& request, std::string* body) {
    if (!EnsureOpen()) return -1;
    for (size_t off = 0; off < request.size();) {
      const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (!(n < 0 && errno == EINTR)) {
        Close();
        return -1;
      }
    }
    net::ResponseParser parser;
    char buf[64 * 1024];
    while (!parser.complete() && !parser.error()) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        parser.Feed(buf, static_cast<size_t>(n));
      } else if (!(n < 0 && errno == EINTR)) {
        Close();
        return -1;
      }
    }
    if (parser.error()) {
      Close();
      return -1;
    }
    *body = parser.body();
    if (parser.Header("connection") == "close") Close();
    return parser.status();
  }

  const int port_;
  int fd_ = -1;
};

}  // namespace perfbench
}  // namespace relview

#endif  // RELVIEW_PERFBENCH_HTTP_CLIENT_H_

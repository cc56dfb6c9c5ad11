#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace oakbench {

namespace {

bool iequal_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') c = char(c - 'A' + 'a');
    if (c != name[i]) return false;
  }
  return true;
}

}  // namespace

// The receive buffer is allocated and touched here, before the run reads
// its baseline memory, so it does not count towards the program's peak.
HttpConnection::HttpConnection() : buf_(1u << 20, '\0') {}

HttpConnection::~HttpConnection() { close(); }

bool HttpConnection::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A fixed receive window large enough for the biggest page, set before
  // connect so it is advertised from the first segment: with the kernel's
  // autotuned window a page's transfer took a run-dependent number of
  // window updates, which moved page latency between runs.
  const int rcvbuf = 2 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  timeval tv{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  begin_ = end_ = 0;
  return true;
}

void HttpConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  begin_ = end_ = 0;
}

bool HttpConnection::fill() {
  if (begin_ > 0 && begin_ == end_) begin_ = end_ = 0;
  if (end_ == buf_.size()) {
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    } else {
      buf_.resize(buf_.size() * 2);
    }
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    if (n > 0) {
      end_ += std::size_t(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool HttpConnection::exchange(std::string_view request, HttpReply& reply) {
  if (fd_ < 0) return false;
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return false;
    }
    sent += std::size_t(n);
  }
  // The previous reply's body has been consumed by the caller.
  std::size_t head_end = std::string::npos;
  for (;;) {
    std::string_view have(buf_.data() + begin_, end_ - begin_);
    head_end = have.find("\r\n\r\n");
    if (head_end != std::string_view::npos) break;
    if (!fill()) {
      close();
      return false;
    }
  }
  std::string_view head(buf_.data() + begin_, head_end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") {
    close();
    return false;
  }
  reply.status = std::atoi(std::string(head.substr(9, 3)).c_str());
  reply.set_cookie = false;
  std::size_t length = 0;
  bool have_length = false;
  for (std::size_t pos = head.find("\r\n"); pos != std::string_view::npos;) {
    const std::size_t next = head.find("\r\n", pos + 2);
    std::string_view line = head.substr(pos + 2, next == std::string_view::npos
                                                      ? std::string_view::npos
                                                      : next - pos - 2);
    if (iequal_prefix(line, "content-length:")) {
      length = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
      have_length = true;
    } else if (iequal_prefix(line, "set-cookie:")) {
      reply.set_cookie = true;
    }
    pos = next;
  }
  if (!have_length) {
    close();
    return false;
  }
  const std::size_t body_begin = begin_ + head_end + 4;
  // fill() may move or grow the buffer; track offsets, not pointers.
  const std::size_t body_offset = body_begin - begin_;
  while (end_ - begin_ < body_offset + length) {
    if (!fill()) {
      close();
      return false;
    }
  }
  reply.body = std::string_view(buf_.data() + begin_ + body_offset, length);
  begin_ += body_offset + length;
  return true;
}

}  // namespace oakbench

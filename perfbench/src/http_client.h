// A blocking keep-alive HTTP/1.1 client for the load generator.
//
// Written here rather than taken from src/wire/client.h so that the
// generator's own cost cannot move when the program's client changes. It
// understands exactly what Oak's wire server sends back: a status line,
// headers, and a Content-Length body.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace oakbench {

struct HttpReply {
  int status = 0;
  bool set_cookie = false;  // a Set-Cookie header came back
  std::string_view body;    // valid until the next exchange
};

class HttpConnection {
 public:
  HttpConnection();
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  // Connect to 127.0.0.1:port with TCP_NODELAY; false on failure.
  bool connect(std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  // Send one complete request and read its reply; false (and the
  // connection closed) on any socket or framing error.
  bool exchange(std::string_view request, HttpReply& reply);

 private:
  bool fill();

  int fd_ = -1;
  std::string buf_;
  std::size_t begin_ = 0;  // start of unconsumed bytes
  std::size_t end_ = 0;    // end of received bytes
};

}  // namespace oakbench

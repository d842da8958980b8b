// HttpClient: minimal blocking keep-alive client for the tuning API.
//
// One client == one persistent connection to one host:port. Requests
// are synchronous: serialize, send, recv until net::parse_response
// frames one full message. The connection is opened lazily on the
// first request and reused; when the server (legitimately) closed a
// kept-alive connection between requests, the client transparently
// reconnects and retries once — the retry only happens when *zero*
// response bytes arrived, so a request is never replayed after the
// server may have acted on it mid-response.
//
// Scope: the test suite, the `tune remote` CLI and the loopback
// throughput bench. IPv4 literal hosts + DNS-free by design; throws std::runtime_error on connect/send/recv
// failure, timeouts and malformed responses (a client, unlike a
// server, has a caller to throw to).
//
// Timeouts: ClientOptions bounds how long a hung peer can block the
// caller. connect_timeout_ms uses a nonblocking connect + poll;
// io_timeout_ms maps to SO_RCVTIMEO/SO_SNDTIMEO, so a peer that
// accepted but never answers fails the request instead of parking the
// thread forever. 0 = no bound (the pre-timeout behavior, kept as the
// default for interactive CLI use); `tune remote --any-node` passes
// finite values to its probes so a dead node is skipped, not waited on.
//
// Thread-safety: none — one HttpClient per thread (it is one socket).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/http.hpp"

namespace bat::net {

/// A server address as given on a command line ("127.0.0.1:8080").
struct HostPort {
  std::string host;  // IPv4 literal, e.g. "127.0.0.1"
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port"; throws std::invalid_argument on malformed input
/// (missing host or colon, non-numeric, zero or out-of-range port).
[[nodiscard]] HostPort parse_host_port(std::string_view text);

struct ClientOptions {
  /// Milliseconds to wait for connect() to complete; 0 = no bound.
  int connect_timeout_ms = 0;
  /// Milliseconds any single send()/recv() may block; 0 = no bound.
  /// This bounds per-syscall stalls, not whole-response time: a peer
  /// trickling bytes resets the clock — good enough against hangs,
  /// which is the failure mode peers actually exhibit.
  int io_timeout_ms = 0;
};

class HttpClient {
 public:
  /// `host` is an IPv4 literal ("127.0.0.1"). Does not connect yet.
  HttpClient(std::string host, std::uint16_t port, ParseLimits limits = {
                 .max_head_bytes = 16 * 1024,
                 .max_body_bytes = 64 * 1024 * 1024,
                 .max_headers = 100,
             },
             ClientOptions options = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  [[nodiscard]] HttpResponse get(const std::string& target);
  [[nodiscard]] HttpResponse post(const std::string& target,
                                  std::string body,
                                  const std::string& content_type =
                                      "application/json");

  /// Pipelined mode (benches, concurrency tests): send without waiting,
  /// read later. HTTP/1.1 responses come back in request order, so N
  /// send_request() calls pair with N read_response() calls in order.
  /// No stale-connection retry here — pipelining callers own pacing.
  void send_request(const std::string& method, const std::string& target,
                    std::string body = {},
                    const std::string& content_type = {});
  /// Frames the next pipelined response; throws if the server closed
  /// mid-stream.
  [[nodiscard]] HttpResponse read_response();

  /// Closes the persistent connection (the next request reconnects).
  void disconnect() noexcept;
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  [[nodiscard]] HttpResponse request(const std::string& method,
                                     const std::string& target,
                                     std::string body,
                                     const std::string& content_type);
  [[nodiscard]] std::string serialize(const std::string& method,
                                      const std::string& target,
                                      std::string body,
                                      const std::string& content_type) const;
  void connect();
  /// Sends the request and reads one response. Returns false when the
  /// reused connection turned out dead before any response byte (the
  /// caller reconnects and retries); throws on every other failure.
  [[nodiscard]] bool round_trip(const std::string& wire, HttpResponse& out);

  std::string host_;
  std::uint16_t port_;
  ParseLimits limits_;
  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  // bytes past the previous response (pipelining)
};

}  // namespace bat::net

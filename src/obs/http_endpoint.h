#ifndef LEOPARD_OBS_HTTP_ENDPOINT_H_
#define LEOPARD_OBS_HTTP_ENDPOINT_H_

// Minimal HTTP/1.1 introspection endpoint (DESIGN: live introspection).
//
// Serves three read-only routes from a dedicated acceptor thread:
//
//   GET /metrics   Prometheus text exposition of the whole registry
//   GET /healthz   200 "ok" when every watchdog heartbeat is fresh,
//                  503 listing the stalled threads otherwise
//   GET /statusz   JSON operational snapshot: uptime, build info, watchdog
//                  state, plus service-specific fields supplied by the
//                  embedding binary; `?events=N` appends the last N journal
//                  events
//
// This is deliberately not a general HTTP server: requests are handled
// serially on the acceptor thread (a scrape every few seconds, not a
// traffic tier), bodies are ignored, and only GET is implemented. It reuses
// net::Socket/Listener and depends on nothing else from src/net, so the obs
// layer stays below the wire-protocol stack in the build graph.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/socket.h"

namespace leopard {
namespace obs {

class EventJournal;
class MetricsRegistry;
class Watchdog;

class HttpEndpoint {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
    const MetricsRegistry* registry = nullptr;  // required for /metrics
    const EventJournal* events = nullptr;       // /statusz?events=N
    const Watchdog* watchdog = nullptr;         // /healthz degradation
    /// Extra JSON fields for /statusz, rendered inside the top-level object
    /// (e.g. `"sessions":3,"shards":[...]`). Called per request from the
    /// acceptor thread; must be thread-safe and fast.
    std::function<std::string()> statusz_fields;
    std::string build_info;  // e.g. "leopard_serve dev"
    uint64_t max_request_bytes = 8192;
  };

  explicit HttpEndpoint(const Options& opts);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds and starts the acceptor thread.
  Status Start();
  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  /// Wakes the acceptor out of accept(2), joins it and closes the
  /// listener. Returns at once unless a request is mid-flight (bounded by
  /// the 2 s per-request socket timeouts). Idempotent.
  void Stop();

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Builds the response body for `path` (with optional query string) —
  /// the routing core, exposed so tests can exercise routes without a
  /// socket. Returns the HTTP status code; fills body + content type.
  int HandleRoute(const std::string& path_and_query, std::string& body,
                  std::string& content_type) const;

 private:
  void AcceptLoop();
  void ServeConnection(net::Socket sock);

  std::string MetricsBody() const;
  std::string HealthzBody(int& code) const;
  std::string StatuszBody(const std::string& query) const;

  Options opts_;
  net::Listener listener_;
  uint16_t port_ = 0;
  uint64_t start_ns_ = 0;
  std::atomic<uint64_t> requests_{0};
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
};

}  // namespace obs
}  // namespace leopard

#endif  // LEOPARD_OBS_HTTP_ENDPOINT_H_

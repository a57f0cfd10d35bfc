#include "obs/http_endpoint.h"

#include <cstdio>
#include <cstdlib>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/registry.h"
#include "obs/watchdog.h"

namespace leopard {
namespace obs {

namespace {

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Bad Request";
  }
}

/// Extracts the value of `key` from a query string "a=1&b=2"; empty if
/// absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

}  // namespace

HttpEndpoint::HttpEndpoint(const Options& opts) : opts_(opts) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

Status HttpEndpoint::Start() {
  auto listener = net::Listener::Listen(opts_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  start_ns_ = NowNs();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpEndpoint::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  listener_.Wake();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
}

void HttpEndpoint::AcceptLoop() {
  while (true) {
    auto accepted = listener_.Accept();  // blocks until a scrape or Stop()
    if (stop_.load(std::memory_order_relaxed)) break;
    if (!accepted.ok()) continue;  // transient accept error
    ServeConnection(std::move(accepted).value());
  }
}

void HttpEndpoint::ServeConnection(net::Socket sock) {
  // Scrapers are cooperative; a short timeout keeps a stuck client from
  // wedging the (single) acceptor thread.
  (void)sock.SetRecvTimeoutMs(2000);
  (void)sock.SetSendTimeoutMs(2000);

  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() > opts_.max_request_bytes) return;
    auto got = sock.Recv(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) return;
    request.append(buf, got.value());
  }

  // Request line: METHOD SP PATH SP VERSION.
  size_t eol = request.find("\r\n");
  std::string line = request.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : line.find(' ', sp1 + 1);
  std::string method =
      sp1 == std::string::npos ? line : line.substr(0, sp1);
  std::string target = sp2 == std::string::npos
                           ? ""
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);

  int code;
  std::string body;
  std::string content_type;
  if (method != "GET") {
    code = 405;
    body = "method not allowed\n";
    content_type = "text/plain; charset=utf-8";
  } else {
    code = HandleRoute(target, body, content_type);
  }

  char header[256];
  int n = std::snprintf(header, sizeof(header),
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n"
                        "\r\n",
                        code, ReasonPhrase(code), content_type.c_str(),
                        body.size());
  if (n <= 0) return;
  if (!sock.SendAll(header, static_cast<size_t>(n)).ok()) return;
  (void)sock.SendAll(body.data(), body.size());
  requests_.fetch_add(1, std::memory_order_relaxed);
}

int HttpEndpoint::HandleRoute(const std::string& path_and_query,
                              std::string& body,
                              std::string& content_type) const {
  size_t q = path_and_query.find('?');
  std::string path = path_and_query.substr(0, q);
  std::string query =
      q == std::string::npos ? "" : path_and_query.substr(q + 1);

  if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = MetricsBody();
    return 200;
  }
  if (path == "/healthz") {
    content_type = "text/plain; charset=utf-8";
    int code = 200;
    body = HealthzBody(code);
    return code;
  }
  if (path == "/statusz") {
    content_type = "application/json";
    body = StatuszBody(query);
    return 200;
  }
  content_type = "text/plain; charset=utf-8";
  body = "not found\n";
  return 404;
}

std::string HttpEndpoint::MetricsBody() const {
  std::string body;
  if (opts_.registry != nullptr) {
    body = MetricsToPrometheus(*opts_.registry);
  }
  body += "# TYPE leopard_uptime_seconds gauge\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "leopard_uptime_seconds %.3f\n",
                static_cast<double>(NowNs() - start_ns_) / 1e9);
  body += buf;
  if (!opts_.build_info.empty()) {
    body += "# TYPE leopard_build_info gauge\n";
    body += "leopard_build_info{version=\"" + PromEscapeLabel(opts_.build_info) +
            "\"} 1\n";
  }
  return body;
}

std::string HttpEndpoint::HealthzBody(int& code) const {
  code = 200;
  std::string body = "ok\n";
  if (opts_.watchdog != nullptr && opts_.watchdog->stalled_count() > 0) {
    code = 503;
    body = "degraded\n";
    for (const std::string& name : opts_.watchdog->StalledThreads()) {
      body += "stalled: " + name + "\n";
    }
  }
  return body;
}

std::string HttpEndpoint::StatuszBody(const std::string& query) const {
  std::string out = "{";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"uptime_s\":%.3f",
                static_cast<double>(NowNs() - start_ns_) / 1e9);
  out += buf;
  out += ",\"build\":\"" + JsonEscape(opts_.build_info) + "\"";
  if (opts_.watchdog != nullptr) {
    out += ",\"watchdog\":{\"stalled\":[";
    bool first = true;
    for (const std::string& name : opts_.watchdog->StalledThreads()) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += JsonEscape(name);
      out += "\"";
    }
    out += "]}";
  }
  if (opts_.statusz_fields) {
    std::string extra = opts_.statusz_fields();
    if (!extra.empty()) {
      out += ",";
      out += extra;
    }
  }
  if (opts_.events != nullptr) {
    std::string n = QueryParam(query, "events");
    if (!n.empty()) {
      unsigned long count = std::strtoul(n.c_str(), nullptr, 10);
      out += ",\"events\":" + opts_.events->ToJson(count);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace leopard

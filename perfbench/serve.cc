// Served verification: one in-process VerifierServer per job and one
// VerifierClient on the benchmark's thread, over loopback.
//
// The benchmark thread pushes, closes the streams, then calls WaitReport
// itself (which sends kBye) and reads the kBye with Finish. That keeps the
// job to one client thread plus the server's acceptor, session reader and
// dispatcher. It relies on the few frames the server sends after the last
// push (acks, violations) fitting in the loopback socket buffers, which holds
// for the histories this benchmark generates.
#include <string>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/registry.h"

namespace perfbench {

namespace net = leopard::net;
using leopard::Status;

/// Bounds a stalled job: the client's wait for kBye and the server's idle
/// session timeout.
constexpr uint64_t kTimeoutMs = 30000;

JobResult RunServeJob(const History& h, const JobOptions& o) {
  JobResult r;
  leopard::obs::MetricsRegistry registry;  // as leopard_serve attaches one
  net::VerifierServer::Options so;
  so.n_shards = 1;
  so.expected_sessions = 1;
  so.metrics = &registry;
  so.idle_timeout_ms = kTimeoutMs;
  if (o.durable) {
    so.state_dir = o.state_dir;
    // Checkpoints are tripped by trace count from the pushing thread, so no
    // timer thread is needed.
    so.checkpoint_interval_ms = 0;
    so.checkpoint_every_traces = 0;
  }
  net::VerifierServer server(EngineConfig(), so);
  r.status = server.Start();
  if (!r.status.ok()) return r;

  net::VerifierClient::Options co;
  co.n_streams = static_cast<uint32_t>(h.streams.size());
  co.recv_timeout_ms = kTimeoutMs;
  const uint64_t t0 = NowNs();
  auto client = net::VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()), co);
  const uint64_t t1 = NowNs();
  r.connect_ns = t1 - t0;
  if (!client.ok()) {
    r.status = client.status();
    server.Shutdown();
    server.WaitReport();
    return r;
  }
  Status st;
  uint64_t pushed = 0;
  for (const auto& [s, i] : h.arrival) {
    st = (*client)->Push(s, h.streams[s][i]);
    if (!st.ok()) break;
    ++pushed;
    if (o.durable && o.checkpoint_every > 0 &&
        pushed % o.checkpoint_every == 0 && pushed < h.traces) {
      const uint64_t c0 = NowNs();
      st = server.TriggerCheckpoint();
      r.checkpoint_ns.push_back(NowNs() - c0);
      if (!st.ok()) break;
    }
  }
  const uint64_t t2 = NowNs();
  r.push_ns = t2 - t1;
  for (uint32_t s = 0; s < co.n_streams && st.ok(); ++s) {
    st = (*client)->CloseStream(s);
  }
  // A failed session must not hold the drain: force it out.
  if (!st.ok()) server.Shutdown();
  server.WaitReport();
  auto bye = (*client)->Finish();
  const uint64_t t3 = NowNs();
  r.drain_ns = t3 - t2;
  r.job_ns = t3 - t0;
  r.verdict.pushed = pushed;
  r.verdict.violations = (*client)->violations();
  if (!st.ok()) {
    r.status = st;
  } else if (!bye.ok()) {
    r.status = bye.status();
  } else {
    r.verdict.traces_verified = bye->traces_verified;
  }
  return r;
}

}  // namespace perfbench

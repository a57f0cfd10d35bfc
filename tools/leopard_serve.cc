// leopard_serve — network verification service (DESIGN.md §8).
//
//   leopard_serve --port=7411 --shards=4 --expect-clients=2
//                 --protocol=pg --isolation=ser
//
// Accepts wire-protocol connections (see src/net/wire.h), feeds every
// session's trace streams into one online verifier, streams violations back
// to the sessions that produced them, and prints the aggregated report once
// all expected clients finished (or on SIGINT/SIGTERM).
//
// Flags (defaults in brackets):
//   --port=N              [0 = kernel-assigned; see --port-file]
//   --port-file=FILE      write the bound port (for scripts using --port=0)
//   --shards=N            [1]   key-sharded parallel verification
//   --expect-clients=N    [0]   sessions to serve before reporting;
//                               0 = run until SIGINT
//   --max-streams=N       [256] stream capacity across all sessions
//   --protocol=pg|innodb|occ|to|2pl|percolator|sqlite   [pg]
//   --isolation=rc|rr|si|ser                     [ser]
//   --idle-timeout-ms=N   [30000]
//   --max-inflight-mb=N   [64]  backpressure threshold
//   --metrics-out=FILE(.json|.csv)
//   --progress-interval-ms=N    [0 = off]
//   --http-port=N               serve GET /metrics (Prometheus), /healthz,
//                               /statusz on this port (0 = kernel-assigned;
//                               see --http-port-file). Omit = no HTTP.
//   --http-port-file=FILE       write the bound HTTP port
//   --diagnose                  record traces; on a violation, delta-debug
//                               the history on a background worker
//   --diagnose-out=DIR          write repro artifacts per diagnosis
//                               (<DIR>/diag_<n>/{diagnosis.json,conflict.dot,
//                               leopard_client_0.trc})
//   --state-dir=DIR             durable mode: write-ahead-log every accepted
//                               batch and checkpoint the verifier state into
//                               DIR; on restart, resume from the newest
//                               checkpoint + log replay with identical
//                               verdicts (kill -9 safe)
//   --checkpoint-interval-ms=N  [10000] checkpoint cadence (0 = WAL only)
//   --checkpoint-every-traces=N [0 = off] also checkpoint every N traces
//   --wal-segment-mb=N          [64]  WAL segment size before seal+rotate
//
// Exit status: 0 = no violations, 1 = violations found, 2 = bad usage.

#include <pthread.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "isolation/isolation.h"
#include "net/server.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/registry.h"
#include "obs/watchdog.h"
#include "verifier/leopard.h"
#include "verifier/mechanism_table.h"

namespace leopard {
namespace {

struct ServeOptions {
  uint16_t port = 0;
  std::string port_file;
  uint32_t shards = 1;
  uint32_t expect_clients = 0;
  uint32_t max_streams = 256;
  std::string protocol = "pg";
  std::string isolation = "ser";
  uint64_t idle_timeout_ms = 30000;
  size_t max_inflight_mb = 64;
  std::string metrics_out;
  uint64_t progress_interval_ms = 0;
  bool diagnose = false;
  std::string diagnose_out;
  bool http = false;  // --http-port given (0 still enables, kernel-assigned)
  uint16_t http_port = 0;
  std::string http_port_file;
  std::string state_dir;
  uint64_t checkpoint_interval_ms = 10000;
  uint64_t checkpoint_every_traces = 0;
  size_t wal_segment_mb = 64;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: leopard_serve [--port=N] [--port-file=FILE] [--shards=N]"
      " [--expect-clients=N] [--max-streams=N]"
      " [--protocol=pg|innodb|occ|to|2pl|percolator|sqlite]"
      " [--isolation=rc|rr|si|ser] [--idle-timeout-ms=N]"
      " [--max-inflight-mb=N] [--metrics-out=FILE(.json|.csv)]"
      " [--progress-interval-ms=N] [--diagnose] [--diagnose-out=DIR]"
      " [--http-port=N] [--http-port-file=FILE] [--state-dir=DIR]"
      " [--checkpoint-interval-ms=N] [--checkpoint-every-traces=N]"
      " [--wal-segment-mb=N]\n");
}

bool ParseArgs(int argc, char** argv, ServeOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&arg](const char* prefix, std::string& out) {
      size_t n = std::strlen(prefix);
      if (arg.compare(0, n, prefix) != 0) return false;
      out = arg.substr(n);
      return true;
    };
    std::string value;
    if (eat("--port-file=", opts.port_file) ||
        eat("--protocol=", opts.protocol) ||
        eat("--isolation=", opts.isolation) ||
        eat("--metrics-out=", opts.metrics_out) ||
        eat("--diagnose-out=", opts.diagnose_out) ||
        eat("--http-port-file=", opts.http_port_file) ||
        eat("--state-dir=", opts.state_dir)) {
      continue;
    }
    if (eat("--http-port=", value)) {
      opts.http = true;
      opts.http_port =
          static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
      continue;
    }
    if (arg == "--diagnose") {
      opts.diagnose = true;
      continue;
    }
    if (eat("--port=", value)) {
      opts.port = static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (eat("--shards=", value)) {
      opts.shards =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
      if (opts.shards == 0) opts.shards = 1;
    } else if (eat("--expect-clients=", value)) {
      opts.expect_clients =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (eat("--max-streams=", value)) {
      opts.max_streams =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (eat("--idle-timeout-ms=", value)) {
      opts.idle_timeout_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (eat("--max-inflight-mb=", value)) {
      opts.max_inflight_mb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (eat("--progress-interval-ms=", value)) {
      opts.progress_interval_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (eat("--checkpoint-interval-ms=", value)) {
      opts.checkpoint_interval_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (eat("--checkpoint-every-traces=", value)) {
      opts.checkpoint_every_traces = std::strtoull(value.c_str(), nullptr, 10);
    } else if (eat("--wal-segment-mb=", value)) {
      opts.wal_segment_mb = std::strtoull(value.c_str(), nullptr, 10);
      if (opts.wal_segment_mb == 0) opts.wal_segment_mb = 1;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

bool ResolveConfig(const ServeOptions& opts, VerifierConfig& config) {
  Protocol protocol;
  IsolationLevel isolation;
  if (opts.protocol == "sqlite") {
    // Real-engine mechanism profile (used by SQLite campaigns): CR without
    // statement-level shrinking, ME, cycle-mode SC, no FUW.
    config = ConfigForSqlite();
    return true;
  }
  if (opts.protocol == "pg") {
    protocol = Protocol::kMvcc2plSsi;
  } else if (opts.protocol == "innodb") {
    protocol = Protocol::kMvcc2pl;
  } else if (opts.protocol == "occ") {
    protocol = Protocol::kMvccOcc;
  } else if (opts.protocol == "to") {
    protocol = Protocol::kMvccTo;
  } else if (opts.protocol == "percolator") {
    protocol = Protocol::kPercolator;
  } else if (opts.protocol == "2pl") {
    protocol = Protocol::k2pl;
  } else {
    return false;
  }
  if (opts.isolation == "rc") {
    isolation = IsolationLevel::kReadCommitted;
  } else if (opts.isolation == "rr") {
    isolation = IsolationLevel::kRepeatableRead;
  } else if (opts.isolation == "si") {
    isolation = IsolationLevel::kSnapshotIsolation;
  } else if (opts.isolation == "ser") {
    isolation = IsolationLevel::kSerializable;
  } else {
    return false;
  }
  config = ConfigForMiniDb(protocol, isolation);
  return true;
}

}  // namespace
}  // namespace leopard

int main(int argc, char** argv) {
  using namespace leopard;
  // SIGINT/SIGTERM are blocked before any thread starts, so every thread
  // inherits the mask and the signals stay pending until the stopper
  // thread's sigwait takes them (even one sent before it is running).
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  ServeOptions opts;
  if (!ParseArgs(argc, argv, opts)) {
    Usage();
    return 2;
  }
  VerifierConfig config;
  if (!ResolveConfig(opts, config)) {
    Usage();
    return 2;
  }

  obs::MetricsRegistry registry;
  obs::EventJournal journal(1024);
  obs::EventJournal::InstallFatalDump(&journal, "events.json");
  obs::Watchdog::Options wo;
  wo.metrics = &registry;
  wo.events = &journal;
  obs::Watchdog watchdog(wo);

  net::VerifierServer::Options so;
  so.port = opts.port;
  so.n_shards = opts.shards;
  so.expected_sessions = opts.expect_clients;
  so.max_streams = opts.max_streams;
  so.idle_timeout_ms = opts.idle_timeout_ms;
  so.max_inflight_bytes = opts.max_inflight_mb << 20;
  so.metrics = &registry;
  so.progress_interval_ms = opts.progress_interval_ms;
  so.print_progress = opts.progress_interval_ms > 0;
  so.diagnose = opts.diagnose || !opts.diagnose_out.empty();
  so.diagnose_out_dir = opts.diagnose_out;
  so.events = &journal;
  so.watchdog = &watchdog;
  so.state_dir = opts.state_dir;
  so.checkpoint_interval_ms = opts.checkpoint_interval_ms;
  so.checkpoint_every_traces = opts.checkpoint_every_traces;
  so.wal_segment_bytes = opts.wal_segment_mb << 20;

  net::VerifierServer server(config, so);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "leopard_serve: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!opts.state_dir.empty() && server.recovery().resumed) {
    const auto& rec = server.recovery();
    std::printf(
        "[leopard_serve] resumed from %s: checkpoint cut %llu, "
        "%llu WAL entries replayed (%llu already checkpointed)\n",
        opts.state_dir.c_str(),
        static_cast<unsigned long long>(rec.checkpoint_cut),
        static_cast<unsigned long long>(rec.entries_replayed),
        static_cast<unsigned long long>(rec.entries_skipped));
    std::fflush(stdout);
  }

  // Live introspection: GET /metrics (Prometheus), /healthz, /statusz.
  std::unique_ptr<obs::HttpEndpoint> http;
  if (opts.http) {
    obs::HttpEndpoint::Options ho;
    ho.port = opts.http_port;
    ho.registry = &registry;
    ho.events = &journal;
    ho.watchdog = &watchdog;
    ho.build_info = std::string("leopard_serve shards=") +
                    std::to_string(opts.shards) + " " + opts.protocol + "/" +
                    opts.isolation;
    ho.statusz_fields = [&server, &registry] {
      net::VerifierServer::StatusSnapshot s = server.GetStatus();
      std::string out;
      out += "\"sessions\":{\"active\":";
      out += std::to_string(s.sessions_active);
      out += ",\"handshaken\":";
      out += std::to_string(s.sessions_handshaken);
      out += ",\"completed\":";
      out += std::to_string(s.sessions_completed);
      out += "},\"traces_received\":";
      out += std::to_string(s.traces_received);
      out += ",\"inflight_bytes\":";
      out += std::to_string(s.inflight_bytes);
      out += ",\"draining\":";
      out += s.draining ? "true" : "false";
      out += ",\"diagnoses\":{\"queued\":";
      out += std::to_string(s.diagnoses_queued);
      out += ",\"done\":";
      out += std::to_string(s.diagnoses_done);
      out += "}";
      // Per-session declared isolation levels (v4 mixed-IL sessions);
      // sessions that never declared any show as all-"ser".
      out += ",\"session_isolation\":{";
      bool first_sess = true;
      for (const auto& [sid, ils] : s.session_ils) {
        if (!first_sess) out += ",";
        first_sess = false;
        out += "\"" + std::to_string(sid) + "\":[";
        for (size_t i = 0; i < ils.size(); ++i) {
          if (i != 0) out += ",";
          out += "\"";
          out += isolation::IsolationLevelShortName(ils[i]);
          out += "\"";
        }
        out += "]";
      }
      out += "}";
      if (s.durable) {
        out += ",\"durable\":{\"checkpoints\":";
        out += std::to_string(s.checkpoints_written);
        out += ",\"checkpoint_age_ms\":";
        out += std::to_string(s.checkpoint_age_ms);
        out += ",\"wal_segments\":";
        out += std::to_string(s.wal_segments);
        out += ",\"wal_next_seq\":";
        out += std::to_string(s.wal_next_seq);
        out += "}";
      }
      // Engine-side depth gauges: per-shard edge queues, certifier backlog,
      // the GC watermark. Collected by prefix so the shard count needn't be
      // threaded through.
      std::string shard_depths;
      int64_t gc_safe = -1;
      registry.VisitGauges([&](const std::string& name,
                               const obs::Gauge& g) {
        const std::string kDepth = ".edge_queue_depth";
        if (name.size() > kDepth.size() &&
            name.compare(name.size() - kDepth.size(), kDepth.size(), kDepth) ==
                0) {
          if (!shard_depths.empty()) shard_depths += ",";
          shard_depths += std::to_string(g.Value());
        } else if (name == "verifier.gc.safe_ts") {
          gc_safe = g.Value();
        }
      });
      out += ",\"shard_edge_queue_depths\":[";
      out += shard_depths;
      out += "]";
      if (gc_safe >= 0) {
        out += ",\"gc_safe_ts\":";
        out += std::to_string(gc_safe);
      }
      return out;
    };
    http = std::make_unique<obs::HttpEndpoint>(ho);
    Status hs = http->Start();
    if (!hs.ok()) {
      std::fprintf(stderr, "leopard_serve: http: %s\n", hs.ToString().c_str());
      return 1;
    }
    std::printf("[leopard_serve] http introspection on port %u\n",
                http->port());
    std::fflush(stdout);
    if (!opts.http_port_file.empty()) {
      std::FILE* f = std::fopen(opts.http_port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "leopard_serve: cannot write %s\n",
                     opts.http_port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", http->port());
      std::fclose(f);
    }
  }
  std::printf("[leopard_serve] listening on port %u (shards=%u, "
              "expect-clients=%u, %s/%s)\n",
              server.port(), opts.shards, opts.expect_clients,
              opts.protocol.c_str(), opts.isolation.c_str());
  std::fflush(stdout);
  if (!opts.port_file.empty()) {
    std::FILE* f = std::fopen(opts.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "leopard_serve: cannot write %s\n",
                   opts.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  // The stopper thread turns SIGINT/SIGTERM into a graceful drain
  // (Shutdown is safe from any thread). A natural drain wakes it with a
  // thread-directed SIGTERM.
  std::atomic<bool> drained{false};
  std::thread stopper([&server, &journal, &stop_signals, &drained] {
    int signo = 0;
    sigwait(&stop_signals, &signo);
    if (drained.load()) return;
    journal.Record(obs::EventSeverity::kInfo, "serve",
                   "shutdown requested; draining");
    server.Shutdown();
  });

  const VerifyReport& report = server.WaitReport();
  drained.store(true);
  pthread_kill(stopper.native_handle(), SIGTERM);
  stopper.join();
  // The endpoint reads the registry/journal/watchdog; stop it (and the
  // watchdog monitor) before any of them can go out of scope.
  if (http != nullptr) http->Stop();
  watchdog.Stop();

  const VerifierStats& s = report.stats;
  std::printf(
      "[leopard_serve] %llu traces from %u sessions | "
      "violations cr=%llu me=%llu fuw=%llu sc=%llu\n",
      static_cast<unsigned long long>(server.traces_received()),
      server.sessions_completed(),
      static_cast<unsigned long long>(s.cr_violations),
      static_cast<unsigned long long>(s.me_violations),
      static_cast<unsigned long long>(s.fuw_violations),
      static_cast<unsigned long long>(s.sc_violations));
  size_t shown = 0;
  for (const auto& bug : report.bugs) {
    std::printf("  %s\n", bug.ToString().c_str());
    if (++shown == 10) break;
  }

  for (const auto& d : server.diagnoses()) {
    std::printf("[diagnose] %s: %llu txns -> %llu (%llu oracle runs)%s\n",
                BugTypeName(d.bug.type),
                static_cast<unsigned long long>(d.original_txns),
                static_cast<unsigned long long>(d.minimized_txns),
                static_cast<unsigned long long>(d.oracle_runs),
                opts.diagnose_out.empty() ? "" : " | artifacts written");
  }

  if (!opts.metrics_out.empty()) {
    Status w = obs::WriteMetricsFile(registry, opts.metrics_out);
    if (!w.ok()) {
      std::fprintf(stderr, "%s\n", w.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", opts.metrics_out.c_str());
  }
  return s.TotalViolations() == 0 ? 0 : 1;
}

// Online verification (the paper's deployment mode, extending Fig. 12):
// the verifier consumes the trace stream *while* client threads run the
// workload. Reports the workload's throughput with and without the live
// verifier attached (the tracing overhead the paper argues is negligible)
// and the drain lag once the workload stops.
//
// --net adds a loopback comparison: the same trace streams pushed into an
// in-process OnlineVerifier vs shipped through leopard's wire protocol to
// a VerifierServer on 127.0.0.1, quantifying the network ingestion tax.
// Each loopback row is then re-run with --state-dir durability (WAL append
// + fflush per batch, checkpoints mid-run) to price the durable mode.
// --http extends --net with a further run that also serves GET /metrics
// and scrapes it continuously, quantifying the introspection overhead.
// --out-dir=DIR overrides where the metrics JSON lands (see bench_util.h).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness/online_verifier.h"
#include "harness/thread_runner.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/events.h"
#include "obs/http_endpoint.h"
#include "obs/watchdog.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

using namespace leopard;
using namespace leopard::bench;

namespace {

struct OnlineRow {
  double plain_tps = 0;
  double attached_tps = 0;
  double drain_seconds = 0;
  uint64_t traces = 0;
  uint64_t violations = 0;
};

OnlineRow RunOnce(Workload* workload, uint64_t txns) {
  OnlineRow row;
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = txns;
  to.seed = 7;
  to.op_delay_ns = 20000;  // modeled engine latency

  {
    Database::Options dbo;
    dbo.lock_wait = LockWaitPolicy::kWaitDie;
    Database db(dbo);
    ThreadRunner runner(&db, workload, to);
    RunResult run = runner.Run();
    row.plain_tps =
        static_cast<double>(run.committed + run.aborted) / run.wall_seconds;
  }
  {
    Database::Options dbo;
    dbo.lock_wait = LockWaitPolicy::kWaitDie;
    Database db(dbo);
    // Full instrumentation including background progress sampling (prints
    // suppressed — the sampled series land in the bench metrics file).
    OnlineVerifier::ObsOptions oo;
    oo.metrics = BenchRegistry();
    oo.progress_interval_ms = oo.metrics != nullptr ? 200 : 0;
    oo.print_progress = false;
    OnlineVerifier online(to.threads,
                          ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable),
                          oo);
    to.on_trace = [&online](ClientId client, const Trace& trace) {
      online.Push(client, Trace(trace));
    };
    ThreadRunner runner(&db, workload, to);
    RunResult run = runner.Run();
    row.attached_tps =
        static_cast<double>(run.committed + run.aborted) / run.wall_seconds;
    Stopwatch drain;
    for (ClientId c = 0; c < to.threads; ++c) online.Close(c);
    const Leopard& verifier = online.Wait();
    row.drain_seconds = drain.Seconds();
    row.traces = verifier.stats().traces_processed;
    row.violations = verifier.stats().TotalViolations();
  }
  return row;
}

struct NetRow {
  double inproc_tps = 0;   // traces/s, in-process OnlineVerifier
  double net_tps = 0;      // traces/s, loopback server + wire client
  uint64_t traces = 0;
  uint64_t scrapes = 0;    // successful /metrics fetches (with_http only)
};

/// One blocking GET against the loopback introspection endpoint; returns
/// the raw response (headers + body), empty on any failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  auto sock = net::TcpConnect("127.0.0.1", port);
  if (!sock.ok()) return "";
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!sock->SendAll(req.data(), req.size()).ok()) return "";
  std::string out;
  char buf[16384];
  while (true) {
    auto got = sock->Recv(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    out.append(buf, *got);
  }
  return out;
}

/// Pushes one collected run through (a) an in-process OnlineVerifier and
/// (b) a loopback VerifierServer via the wire protocol, timing push-to-
/// report for each. Streams are interleaved in global ts_bef order both
/// times so the pipeline merge behaves identically. With `with_http` the
/// server side also runs the HTTP introspection endpoint plus a scraper
/// thread hammering GET /metrics, so net_tps then measures verification
/// under live scraping. A non-empty `state_dir` enables the durability
/// layer on the loopback server (per-batch WAL fsync-to-page-cache plus
/// checkpoints firing mid-run), so net_tps then prices durable mode.
NetRow RunNetComparison(const RunResult& run, uint32_t shards,
                        bool with_http, const std::string& state_dir = "") {
  const VerifierConfig config = ConfigForMiniDb(
      Protocol::kMvcc2plSsi, IsolationLevel::kSerializable);
  const uint32_t clients = static_cast<uint32_t>(run.client_traces.size());
  NetRow row;
  for (const auto& ct : run.client_traces) row.traces += ct.size();

  // Merge order shared by both sides.
  auto merged_push = [&](auto&& push) {
    std::vector<size_t> next(clients, 0);
    while (true) {
      uint32_t pick = clients;
      for (uint32_t c = 0; c < clients; ++c) {
        if (next[c] >= run.client_traces[c].size()) continue;
        if (pick == clients ||
            run.client_traces[c][next[c]].ts_bef() <
                run.client_traces[pick][next[pick]].ts_bef()) {
          pick = c;
        }
      }
      if (pick == clients) break;
      push(pick, Trace(run.client_traces[pick][next[pick]++]));
    }
  };

  {
    OnlineVerifier::Options oo;
    oo.n_shards = shards;
    OnlineVerifier online(clients, config, oo);
    Stopwatch timer;
    merged_push([&](uint32_t c, Trace t) { online.Push(c, std::move(t)); });
    for (ClientId c = 0; c < clients; ++c) online.Close(c);
    online.WaitReport();
    row.inproc_tps = static_cast<double>(row.traces) / timer.Seconds();
  }
  {
    obs::EventJournal journal(256);
    obs::Watchdog::Options wo;
    wo.metrics = BenchRegistry();
    wo.events = &journal;
    obs::Watchdog watchdog(wo);
    net::VerifierServer::Options so;
    so.n_shards = shards;
    so.expected_sessions = 1;
    so.metrics = BenchRegistry();
    if (!state_dir.empty()) {
      so.state_dir = state_dir;
      // The loopback runs finish in well under the default 10s cadence;
      // trip checkpoints by trace count so several land mid-run and the
      // measured cost includes quiesce + serialize + WAL GC, not just the
      // per-batch WAL appends.
      so.checkpoint_interval_ms = 500;
      so.checkpoint_every_traces = 10000;
    }
    if (with_http) {
      so.events = &journal;
      so.watchdog = &watchdog;
    }
    net::VerifierServer server(config, so);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "loopback server: %s\n", st.ToString().c_str());
      return row;
    }
    std::unique_ptr<obs::HttpEndpoint> http;
    std::atomic<bool> scrape_stop{false};
    std::thread scraper;
    std::atomic<uint64_t> scrapes{0};
    if (with_http) {
      obs::HttpEndpoint::Options ho;
      ho.registry = BenchRegistry();
      ho.events = &journal;
      ho.watchdog = &watchdog;
      ho.build_info = "bench_online";
      http = std::make_unique<obs::HttpEndpoint>(ho);
      Status hs = http->Start();
      if (!hs.ok()) {
        std::fprintf(stderr, "http endpoint: %s\n", hs.ToString().c_str());
        return row;
      }
      const uint16_t hport = http->port();
      scraper = std::thread([hport, &scrape_stop, &scrapes] {
        while (!scrape_stop.load(std::memory_order_relaxed)) {
          std::string resp = HttpGet(hport, "/metrics");
          if (resp.find("200 OK") != std::string::npos) {
            scrapes.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }
    std::thread drain([&server] { server.WaitReport(); });
    net::VerifierClient::Options co;
    co.n_streams = clients;
    auto client = net::VerifierClient::Connect(
        "127.0.0.1:" + std::to_string(server.port()), co);
    if (!client.ok()) {
      std::fprintf(stderr, "loopback connect: %s\n",
                   client.status().ToString().c_str());
      server.Shutdown();
      drain.join();
      if (scraper.joinable()) {
        scrape_stop.store(true, std::memory_order_relaxed);
        scraper.join();
      }
      return row;
    }
    Stopwatch timer;
    merged_push([&](uint32_t c, Trace t) {
      Status s = (*client)->Push(c, std::move(t));
      if (!s.ok()) std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
    });
    auto bye = (*client)->Finish();
    if (!bye.ok()) {
      std::fprintf(stderr, "finish: %s\n", bye.status().ToString().c_str());
    }
    drain.join();
    row.net_tps = static_cast<double>(row.traces) / timer.Seconds();
    if (scraper.joinable()) {
      scrape_stop.store(true, std::memory_order_relaxed);
      scraper.join();
      row.scrapes = scrapes.load(std::memory_order_relaxed);
    }
    if (http != nullptr) http->Stop();
    watchdog.Stop();
  }
  return row;
}

void RunNetMode(bool with_http) {
  PrintHeader("Network ingestion: in-process push vs loopback wire "
              "protocol (verification throughput, traces/s)");
  std::printf("%-10s %-8s %-7s %12s %12s %8s\n", "workload", "txns",
              "shards", "inproc-tps", "net-tps", "ratio");
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t txns : {5000ull, 10000ull}) {
      SmallBankWorkload::Options wo;
      SmallBankWorkload workload(wo);
      const RunResult& run =
          CachedCollectTraces(&workload, Protocol::kMvcc2plSsi,
                              IsolationLevel::kSerializable, txns, 8, txns);
      NetRow row = RunNetComparison(run, shards, /*with_http=*/false);
      std::printf("%-10s %-8llu %-7u %12.0f %12.0f %7.2f%%\n", "SmallBank",
                  static_cast<unsigned long long>(txns), shards,
                  row.inproc_tps, row.net_tps,
                  row.inproc_tps > 0 ? 100.0 * row.net_tps / row.inproc_tps
                                     : 0.0);
      {
        const std::string state_dir =
            "bench_online_state_" + std::to_string(shards) + "_" +
            std::to_string(txns);
        std::filesystem::remove_all(state_dir);
        NetRow drow =
            RunNetComparison(run, shards, /*with_http=*/false, state_dir);
        std::printf("%-10s %-8llu %-7u %12s %12.0f %7.2f%%  (+durable)\n",
                    "SmallBank", static_cast<unsigned long long>(txns),
                    shards, "-", drow.net_tps,
                    row.net_tps > 0 ? 100.0 * drow.net_tps / row.net_tps
                                    : 0.0);
        std::filesystem::remove_all(state_dir);
      }
      if (with_http) {
        NetRow hrow = RunNetComparison(run, shards, /*with_http=*/true);
        std::printf("%-10s %-8llu %-7u %12s %12.0f %7.2f%%  "
                    "(+http, %llu scrapes)\n",
                    "SmallBank", static_cast<unsigned long long>(txns),
                    shards, "-", hrow.net_tps,
                    row.net_tps > 0 ? 100.0 * hrow.net_tps / row.net_tps
                                    : 0.0,
                    static_cast<unsigned long long>(hrow.scrapes));
      }
    }
  }
  std::printf("\nExpected: the wire protocol costs little — framing and a "
              "loopback hop, no extra copies on the verification path.\n");
  std::printf("The +durable rows re-run the loopback side with --state-dir "
              "durability (WAL + mid-run checkpoints); the ratio is "
              "durable-on vs durable-off net-tps (measured median ~60%%: a "
              "WAL append + fflush per batch, DESIGN.md section 11).\n");
  if (with_http) {
    std::printf("The +http rows re-run the loopback side with GET /metrics "
                "scraped every 20ms; the ratio is http-on vs http-off "
                "net-tps (measured median ~100%%, but one row varies by "
                "~10%%; docs/OBSERVABILITY.md).\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool net_mode = false;
  bool with_http = false;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net") == 0) {
      net_mode = true;
    } else if (std::strcmp(argv[i], "--http") == 0) {
      with_http = true;
    } else if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else {
      std::fprintf(stderr,
                   "usage: bench_online [--net] [--http] [--out-dir=DIR]\n");
      return 2;
    }
  }
  if (net_mode) {
    RunNetMode(with_http);
    DropBenchMetrics("bench_online_net", out_dir);
    return 0;
  }
  PrintHeader("Online verification: workload tps alone vs with live "
              "verifier, and drain lag at workload end");
  std::printf("%-10s %-8s %12s %12s %10s %10s %6s\n", "workload", "txns",
              "plain-tps", "online-tps", "drain(s)", "traces", "bugs");
  for (uint64_t txns : {2000ull, 5000ull, 10000ull}) {
    {
      YcsbWorkload::Options wo;
      wo.record_count = 2000;
      YcsbWorkload workload(wo);
      OnlineRow row = RunOnce(&workload, txns);
      std::printf("%-10s %-8llu %12.0f %12.0f %10.4f %10llu %6llu\n",
                  "YCSB", static_cast<unsigned long long>(txns),
                  row.plain_tps, row.attached_tps, row.drain_seconds,
                  static_cast<unsigned long long>(row.traces),
                  static_cast<unsigned long long>(row.violations));
    }
    {
      SmallBankWorkload::Options wo;
      SmallBankWorkload workload(wo);
      OnlineRow row = RunOnce(&workload, txns);
      std::printf("%-10s %-8llu %12.0f %12.0f %10.4f %10llu %6llu\n",
                  "SmallBank", static_cast<unsigned long long>(txns),
                  row.plain_tps, row.attached_tps, row.drain_seconds,
                  static_cast<unsigned long long>(row.traces),
                  static_cast<unsigned long long>(row.violations));
    }
  }
  std::printf("\nExpected: attaching the live verifier costs little "
              "workload throughput, and the residual drain after the last "
              "transaction is near zero — verification keeps pace.\n");
  DropBenchMetrics("bench_online", out_dir);
  return 0;
}

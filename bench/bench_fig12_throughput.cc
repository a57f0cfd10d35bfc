// Reproduces paper Fig. 12: can Leopard's verification throughput keep up
// with the DBMS's transaction throughput? SmallBank and TPC-C run on MiniDB
// with real threads; the resulting traces are verified with Leopard; both
// throughputs are reported in transactions/second as the scale factor
// varies (smaller scale factor = hotter data = more contention).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/awdit_checker.h"
#include "bench_util.h"
#include "harness/online_verifier.h"
#include "harness/thread_runner.h"
#include "workload/blindw.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

using namespace leopard;
using namespace leopard::bench;

namespace {

void RunSeries(const char* name,
               const std::function<std::unique_ptr<Workload>(uint32_t)>&
                   make_workload) {
  PrintHeader(std::string("Fig. 12: ") + name +
              " — DBMS vs Leopard throughput (txns/s)");
  std::printf("%-6s %14s %14s %10s\n", "sf", "db-tps", "leopard-tps",
              "ratio");
  for (uint32_t sf : {1u, 2u, 4u, 8u}) {
    auto workload = make_workload(sf);
    Database::Options dbo;
    dbo.protocol = Protocol::kMvcc2plSsi;
    dbo.isolation = IsolationLevel::kSerializable;
    dbo.lock_wait = LockWaitPolicy::kWaitDie;
    Database db(dbo);
    ThreadRunnerOptions to;
    to.threads = 4;
    to.total_txns = 8000;
    to.seed = 100 + sf;
    // Model a realistic per-statement engine cost (~60us: fast in-memory
    // SQL engine); MiniDB's raw ~100ns/op would make the DBMS side of the
    // comparison meaninglessly fast.
    to.op_delay_ns = 60000;
    ThreadRunner runner(&db, workload.get(), to);
    RunResult run = runner.Run();
    double db_tps =
        static_cast<double>(run.committed + run.aborted) / run.wall_seconds;

    VerifyOutcome out = VerifyWithLeopard(
        run, ConfigForMiniDb(Protocol::kMvcc2plSsi,
                             IsolationLevel::kSerializable));
    double txn_per_trace = static_cast<double>(run.committed + run.aborted) /
                           static_cast<double>(out.traces);
    double leopard_tps =
        static_cast<double>(out.traces) * txn_per_trace / out.seconds;
    std::printf("%-6u %14.0f %14.0f %9.2fx\n", sf, db_tps, leopard_tps,
                leopard_tps / db_tps);
  }
}

// One replay of a collected trace run through an OnlineVerifier: real
// producer threads push their client streams concurrently; reports the
// verification throughput, the mean time a producer spends blocked inside
// Push(), and the violation count.
struct ReplayStats {
  double tps = 0;
  double stall_us = 0;
  uint64_t bugs = 0;
};

ReplayStats ReplayOnline(const RunResult& run,
                         const OnlineVerifier::Options& options) {
  const auto clients = static_cast<uint32_t>(run.client_traces.size());
  const auto total = static_cast<uint64_t>(run.TotalTraces());
  OnlineVerifier online(
      clients,
      ConfigForMiniDb(Protocol::kMvcc2plSsi, IsolationLevel::kSerializable),
      options);
  std::atomic<uint64_t> push_ns{0};
  Stopwatch timer;
  std::vector<std::thread> producers;
  producers.reserve(clients);
  for (ClientId c = 0; c < clients; ++c) {
    producers.emplace_back([&run, &online, &push_ns, c] {
      uint64_t ns = 0;
      for (const auto& t : run.client_traces[c]) {
        auto t0 = std::chrono::steady_clock::now();
        online.Push(c, Trace(t));
        ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      online.Close(c);
      push_ns.fetch_add(ns, std::memory_order_relaxed);
    });
  }
  for (auto& p : producers) p.join();
  const VerifyReport& report = online.WaitReport();
  double secs = timer.Seconds();
  ReplayStats stats;
  stats.tps = secs > 0 ? static_cast<double>(total) / secs : 0.0;
  stats.stall_us = total > 0 ? static_cast<double>(push_ns.load()) /
                                   static_cast<double>(total) / 1e3
                             : 0.0;
  stats.bugs = report.stats.TotalViolations();
  return stats;
}

// Online shard-scaling curve: the same BlindW-RW trace streams are replayed
// by real producer threads into an OnlineVerifier at increasing shard
// counts. Reports verification throughput, speedup over the single-shard
// engine, and the mean time a producer spends blocked inside Push() — the
// stall the batched drain loop is meant to eliminate (visible even at
// shards=1).
void RunOnlineShardScaling(uint32_t max_shards) {
  PrintHeader(
      "Fig. 12 (online): BlindW-RW shard scaling — OnlineVerifier");
  BlindWWorkload::Options wo;
  BlindWWorkload workload(wo);
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  dbo.lock_wait = LockWaitPolicy::kWaitDie;
  Database db(dbo);
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 20000;
  to.seed = 120;
  ThreadRunner runner(&db, &workload, to);
  RunResult run = runner.Run();

  std::vector<uint32_t> shard_counts;
  for (uint32_t s = 1; s < max_shards; s *= 2) shard_counts.push_back(s);
  shard_counts.push_back(max_shards);

  std::printf("%-8s %14s %10s %16s %10s\n", "shards", "verify-tps",
              "speedup", "push-stall(us)", "bugs");
  double base_tps = 0;
  for (uint32_t shards : shard_counts) {
    OnlineVerifier::Options options;
    options.n_shards = shards;
    ReplayStats stats = ReplayOnline(run, options);
    if (shards == 1) base_tps = stats.tps;
    std::printf("%-8u %14.0f %9.2fx %16.2f %10llu\n", shards, stats.tps,
                base_tps > 0 ? stats.tps / base_tps : 1.0, stats.stall_us,
                static_cast<unsigned long long>(stats.bugs));
  }
}

// Skew sweep (--zipf=THETA): a zipfian-skewed YCSB trace stream is replayed
// at increasing shard counts through the hash-partitioned engine (work
// stealing + batched SC certification). Under heavy skew the hash parks
// most of the traffic on whichever shards own the hot keys; idle workers
// steal from their queues. Every row must report the same bug count —
// sharding moves work, never verdicts.
void RunOnlineSkewScaling(uint32_t max_shards, double theta) {
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fig. 12 (skew): YCSB zipfian theta=%.2f — sharded engine",
                theta);
  PrintHeader(title);
  YcsbWorkload::Options wo;
  wo.record_count = 2000;
  wo.theta = theta;
  wo.read_ratio = 0.5;
  YcsbWorkload workload(wo);
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  dbo.lock_wait = LockWaitPolicy::kWaitDie;
  Database db(dbo);
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 20000;
  to.seed = 121;
  ThreadRunner runner(&db, &workload, to);
  RunResult run = runner.Run();

  std::vector<uint32_t> shard_counts;
  for (uint32_t s = 2; s < max_shards; s *= 2) shard_counts.push_back(s);
  if (max_shards >= 2) shard_counts.push_back(max_shards);

  std::printf("%-8s %14s %10s\n", "shards", "verify-tps", "bugs");
  for (uint32_t shards : shard_counts) {
    OnlineVerifier::Options options;
    options.n_shards = shards;
    ReplayStats stats = ReplayOnline(run, options);
    std::printf("%-8u %14.0f %10llu\n", shards, stats.tps,
                static_cast<unsigned long long>(stats.bugs));
  }
}

// Weak-isolation baseline comparison: the same RC history verified by
// Leopard (per-txn mechanism subset: statement-level CR only) and by the
// AWDIT-style optimal weak checker. Both must agree the clean history is
// clean; the throughput gap is the figure.
void RunWeakBaselineComparison() {
  PrintHeader(
      "Fig. 12 (weak-IL baseline): Leopard vs AWDIT on an RC history");
  BlindWWorkload::Options wo;
  wo.variant = BlindWVariant::kReadWriteRange;
  BlindWWorkload workload(wo);
  RunResult run =
      CollectTraces(&workload, Protocol::kMvcc2plSsi,
                    IsolationLevel::kReadCommitted, 6000, 8, 77);
  // Tag the history RC so Leopard applies RC's mechanism subset per txn.
  for (auto& traces : run.client_traces) {
    for (auto& t : traces) t.il = IsolationLevel::kReadCommitted;
  }
  VerifyOutcome leo = VerifyWithLeopard(
      run, ConfigForMiniDb(Protocol::kMvcc2plSsi,
                           IsolationLevel::kReadCommitted));
  // Test at the level the sessions declared: RC (a correct RC engine may
  // legitimately fracture multi-statement read sets at RA and above).
  AwditChecker::Options ao;
  ao.level = AwditChecker::Level::kReadCommitted;
  AwditChecker checker(ao);
  Stopwatch timer;
  uint64_t n = 0;
  for (const auto& traces : run.client_traces) {
    for (const auto& t : traces) {
      checker.Add(t);
      ++n;
    }
  }
  AwditChecker::Report rep = checker.Check();
  double awdit_secs = timer.Seconds();
  std::printf("%-10s %14s %14s %10s\n", "checker", "traces/s", "mem(MB)",
              "verdict");
  std::printf("%-10s %14.0f %14.2f %10s\n", "leopard",
              static_cast<double>(leo.traces) / leo.seconds,
              static_cast<double>(leo.peak_memory) / 1e6,
              leo.stats.TotalViolations() == 0 ? "clean" : "VIOLATION");
  std::printf("%-10s %14.0f %14.2f %10s\n", "awdit",
              awdit_secs > 0 ? static_cast<double>(n) / awdit_secs : 0.0,
              static_cast<double>(checker.ApproxMemoryBytes()) / 1e6,
              rep.consistent ? "clean" : "VIOLATION");
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t max_shards = 4;
  double zipf_theta = 0.99;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      max_shards =
          static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
      if (max_shards == 0) max_shards = 1;
    } else if (std::strncmp(argv[i], "--zipf=", 7) == 0) {
      zipf_theta = std::strtod(argv[i] + 7, nullptr);
    }
  }
  RunSeries("SmallBank", [](uint32_t sf) -> std::unique_ptr<Workload> {
    SmallBankWorkload::Options o;
    o.scale_factor = sf;
    return std::make_unique<SmallBankWorkload>(o);
  });
  RunSeries("TPC-C", [](uint32_t sf) -> std::unique_ptr<Workload> {
    TpccWorkload::Options o;
    o.scale_factor = sf;
    o.customers_per_district = 50;
    return std::make_unique<TpccWorkload>(o);
  });
  RunOnlineShardScaling(max_shards);
  RunOnlineSkewScaling(max_shards, zipf_theta);
  RunWeakBaselineComparison();
  std::printf("\nPaper shape: Leopard's verification throughput matches or "
              "exceeds the DBMS's transaction throughput, with the largest "
              "headroom on the complex TPC-C logic; the sharded online "
              "engine scales the per-key mechanisms across cores, and work "
              "stealing keeps idle workers busy under zipfian hot-key "
              "traffic.\n");
  DropBenchMetrics("bench_fig12_throughput");
  return 0;
}

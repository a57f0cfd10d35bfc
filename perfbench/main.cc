// leopard_perfbench: the repository's benchmark. Usage:
//
//   leopard_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --work-dir <dir>
//   leopard_perfbench --selftest --work-dir <dir>
//
// Workloads: offline_rwplus, offline_zipf_sharded, serve_smallbank,
// serve_smallbank_durable. With --trace 0 it prints the end-to-end metrics,
// with --trace 1 the per-layer metrics; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. README.md explains every
// metric and check.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

// Input sizes. A pass or job is sized so one run holds many of them.
constexpr uint64_t kRwPlusTxns = 10000;
constexpr uint64_t kZipfTxns = 20000;
constexpr uint64_t kJobTxns = 8000;
constexpr uint32_t kJobsPerRound = 4;  ///< the last job of a round is faulty
constexpr double kDropLockProb = 0.2;
constexpr int kSetupReps = 5;
constexpr int kReplayReps = 5;
constexpr size_t kBatchTraces = 256;  ///< VerifierClient's default batch

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir;
};

/// Operation accounting and the metrics of one run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;

  /// One operation: it fails on a non-OK status or a failed check; a failed
  /// check also makes the run incorrect.
  void Record(const leopard::Status& status, const std::string& check) {
    ++attempted;
    if (!status.ok()) {
      ++failed;
      std::fprintf(stderr, "operation failed: %s\n", status.ToString().c_str());
    } else if (!check.empty()) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", check.c_str());
    }
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

uint32_t Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

uint64_t JobSeed(uint64_t seed, uint32_t job) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + job + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return z ^ (z >> 27);
}

/// The engine shape of a workload: one shard, or as many shards as cores
/// with workers + dispatcher + certifier within the core count.
PassOptions Shape(bool sharded) {
  PassOptions po;
  po.config = EngineConfig();
  if (sharded) {
    po.n_shards = Cores();
    po.n_workers = Cores() > 2 ? Cores() - 2 : 1;
  }
  return po;
}

double Secs(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Generates the inputs kSetupReps times (same seed, same inputs) and
/// reports the median as setup_s.
template <typename Fn>
double TimedSetup(Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupReps; ++i) {
    const uint64_t t0 = NowNs();
    setup();
    s.push_back(Secs(NowNs() - t0));
  }
  return Median(s);
}

// ------------------------------------------------------ per-layer metrics

/// Per-layer metrics of a traced run over `hs` (the offline history, or one
/// round of serve jobs). Every layer is measured on every workload: the
/// workload's own path gives its layers, and the same calls replayed over its
/// histories give the others. `durable` picks which served jobs give the
/// net.* figures.
void MeasureLayers(const std::vector<History>& hs, bool sharded, bool durable,
                   double seconds, const std::string& work_dir, Outcome& out) {
  const PassOptions own = Shape(sharded);
  PassOptions one = Shape(false);
  PassOptions many = Shape(true);
  uint64_t traces = 0;
  std::vector<std::string> dirs;
  for (size_t k = 0; k < hs.size(); ++k) {
    traces += hs[k].traces;
    dirs.push_back(work_dir + "/layers_" + std::to_string(k));
    std::filesystem::create_directories(dirs.back());
    out.Record(WriteTraceFiles(hs[k], dirs.back()), "");
  }
  const double n = static_cast<double>(traces);
  std::vector<leopard::VerifyReport> refs(hs.size());

  // Runs one pass over every history; returns the summed result.
  auto sweep = [&](const PassOptions& po, bool check_refs) {
    PassResult sum;
    for (size_t k = 0; k < hs.size(); ++k) {
      PassResult p = OfflinePass(dirs[k], po);
      std::string why;
      if (check_refs) {
        why = CheckSameBugs(p.report.bugs, refs[k].bugs);
        if (why.empty() && po.n_shards == 1 &&
            p.report.stats.traces_processed != hs[k].traces) {
          why = "one-shard pass did not verify every trace";
        }
      }
      out.Record(p.status, why);
      sum.traces += p.traces;
      sum.file_bytes += p.file_bytes;
      sum.wall_ns += p.wall_ns;
      sum.read_ns += p.read_ns;
      sum.push_ns += p.push_ns;
      sum.dispatch_ns += p.dispatch_ns;
      sum.process_ns += p.process_ns;
      sum.finish_ns += p.finish_ns;
      sum.cpu_s += p.cpu_s;
      for (int i = 0; i < 3; ++i) {
        sum.kind_ns[i] += p.kind_ns[i];
        sum.kind_n[i] += p.kind_n[i];
      }
      sum.terminal_samples.insert(sum.terminal_samples.end(),
                                  p.terminal_samples.begin(),
                                  p.terminal_samples.end());
    }
    return sum;
  };
  for (size_t k = 0; k < hs.size(); ++k) {
    refs[k] = MemoryPass(hs[k], one).report;
  }

  PassOptions one_t = one, many_t = many, bare = own;
  one_t.trace = many_t.trace = true;
  bare.metrics = false;
  std::vector<PassOptions> ablated(4, one);
  ablated[0].config.check_cr = false;
  ablated[1].config.check_me = false;
  ablated[2].config.check_fuw = false;
  ablated[3].config.check_sc = false;

  // Repetitions until the run's time is spent. Each figure is taken from the
  // fastest repetition, as the end-to-end figures are; a traced breakdown
  // comes whole from one repetition, so its parts still add up.
  struct Rep {
    PassResult untraced, bare, one_traced, many_traced, one_untraced;
    PassResult off[4];
  };
  std::vector<Rep> reps;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    Rep r;
    r.untraced = sweep(own, true);
    r.bare = sweep(bare, true);
    r.one_traced = sweep(one_t, true);
    r.many_traced = sweep(many_t, true);
    r.one_untraced = sharded ? sweep(one, true) : r.untraced;
    for (int m = 0; m < 4; ++m) r.off[m] = sweep(ablated[m], false);
    reps.push_back(std::move(r));
  } while (reps.size() < 3 || NowNs() < deadline);
  // The fastest pass of one kind, and its wall time in ns per trace.
  auto fast_rep = [&](PassResult Rep::*pass) -> const PassResult& {
    return *std::min_element(reps.begin(), reps.end(),
                             [&](const Rep& x, const Rep& y) {
                               return (x.*pass).wall_ns < (y.*pass).wall_ns;
                             }).*pass;
  };
  auto fast = [&](PassResult Rep::*pass) { return fast_rep(pass).wall_ns / n; };
  auto mean = [](uint64_t ns, uint64_t c) {
    return c == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(c);
  };
  const double per_history = static_cast<double>(hs.size());

  const PassResult& o1 = fast_rep(&Rep::one_traced);
  const PassResult& om = fast_rep(&Rep::many_traced);
  // The offline path's layers on the workload's own engine, in the order a
  // trace meets them; their sum against the untraced pass shows what the
  // tracing missed or added.
  const PassResult& t = sharded ? om : o1;
  const double untraced = fast(&Rep::untraced);
  const double layer_sum =
      (t.read_ns + t.push_ns + t.dispatch_ns + t.process_ns + t.finish_ns) / n;
  out.Set("bench.untraced_ns_per_trace", untraced, "ns");
  out.Set("bench.traced_ns_per_trace", t.wall_ns / n, "ns");
  out.Set("bench.layer_sum_ns_per_trace", layer_sum, "ns");
  out.Set("bench.unattributed_ns_per_trace", untraced - layer_sum, "ns");
  out.Set("bench.trace_overhead_ns_per_trace", t.wall_ns / n - untraced, "ns");
  out.Set("trace.read_ns_per_trace", t.read_ns / n, "ns");
  out.Set("trace.file_bytes_per_trace", t.file_bytes / n, "bytes");
  out.Set("pipeline.push_ns_per_trace", t.push_ns / n, "ns");
  out.Set("pipeline.dispatch_ns_per_trace", t.dispatch_ns / n, "ns");
  out.Set("verifier.process_ns_per_trace", o1.process_ns / n, "ns");
  out.Set("verifier.read_ns_mean", mean(o1.kind_ns[0], o1.kind_n[0]), "ns");
  out.Set("verifier.write_ns_mean", mean(o1.kind_ns[1], o1.kind_n[1]), "ns");
  out.Set("verifier.terminal_ns_mean", mean(o1.kind_ns[2], o1.kind_n[2]), "ns");
  out.Set("verifier.terminal_ns_p99", Quantile(o1.terminal_samples, 0.99),
          "ns");
  out.Set("verifier.finish_ms", o1.finish_ns / 1e6 / per_history, "ms");
  out.Set("sharded.route_ns_per_trace", om.process_ns / n, "ns");
  out.Set("sharded.finish_ms", om.finish_ns / 1e6 / per_history, "ms");
  out.Set("sharded.cpu_per_wall", om.cpu_s / Secs(om.wall_ns), "s/s");
  out.Set("sharded.single_shard_tps", 1e9 / fast(&Rep::one_untraced),
          "traces/s");
  out.Set("obs.metrics_ns_per_trace", untraced - fast(&Rep::bare), "ns");
  // Marginal cost of each mechanism: the one-shard pass with it switched off.
  const char* names[4] = {"cr", "me", "fuw", "sc"};
  for (int m = 0; m < 4; ++m) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.off[m].wall_ns / n);
    out.Set(std::string("verifier.") + names[m] + "_cost_ns_per_trace",
            fast(&Rep::one_untraced) - Fastest(v), "ns");
  }

  // Pipeline hold with pushes and dispatches interleaved in arrival order.
  std::vector<double> holds;
  for (const auto& h : hs) {
    auto v = ReplayHold(h, one.config);
    holds.insert(holds.end(), v.begin(), v.end());
  }
  out.Set("pipeline.hold_us_p50", Quantile(holds, 0.5) / 1e3, "us");
  out.Set("pipeline.hold_us_p99", Quantile(holds, 0.99) / 1e3, "us");

  // In-process online verification, wire codec and WAL, isolated.
  std::vector<double> online, enc, dec, wal;
  double wire_bytes = 0, wal_bytes = 0;
  for (int r = 0; r < kReplayReps; ++r) {
    uint64_t on = 0, e = 0, d = 0, w = 0;
    wire_bytes = wal_bytes = 0;
    for (size_t k = 0; k < hs.size(); ++k) {
      leopard::VerifyReport rep;
      on += ReplayOnline(hs[k], one.config, &rep);
      out.Record(leopard::Status::Ok(), CheckSameBugs(rep.bugs, refs[k].bugs));
      WireReplay wr_k = ReplayWire(hs[k], kBatchTraces);
      out.Record(wr_k.status, "");
      e += wr_k.encode_ns;
      d += wr_k.decode_ns;
      wire_bytes += static_cast<double>(wr_k.wire_bytes);
      WalReplayResult wl = ReplayWal(hs[k], work_dir + "/wal_replay", kBatchTraces);
      out.Record(wl.status, "");
      w += wl.append_ns;
      wal_bytes += static_cast<double>(wl.bytes);
    }
    online.push_back(on / n);
    enc.push_back(e / n);
    dec.push_back(d / n);
    wal.push_back(w / n);
  }
  out.Set("harness.online_ns_per_trace", Fastest(online), "ns");
  out.Set("net.encode_batch_ns_per_trace", Fastest(enc), "ns");
  out.Set("net.decode_batch_ns_per_trace", Fastest(dec), "ns");
  out.Set("net.wire_bytes_per_trace", wire_bytes / n, "bytes");
  out.Set("durable.wal_append_ns_per_trace", Fastest(wal), "ns");
  out.Set("durable.wal_bytes_per_trace", wal_bytes / n, "bytes");

  // Served jobs over the same histories, without and with durability.
  std::vector<double> connect_ms, client_push, ckpt_ms;
  for (int pass = 0; pass < 2; ++pass) {
    const bool dur = pass == 1;
    uint64_t push_ns = 0;
    for (size_t k = 0; k < hs.size(); ++k) {
      JobOptions jo;
      jo.durable = dur;
      jo.state_dir = work_dir + "/layers_state";
      jo.checkpoint_every = hs[k].traces / 4;
      std::filesystem::remove_all(jo.state_dir);
      JobResult job = RunServeJob(hs[k], jo);
      out.Record(job.status,
                 CheckServeJob(job.verdict, {hs[k].traces, hs[k].injected,
                                             refs[k].bugs}));
      std::filesystem::remove_all(jo.state_dir);
      push_ns += job.push_ns;
      if (dur == durable) connect_ms.push_back(job.connect_ns / 1e6);
      for (uint64_t c : job.checkpoint_ns) ckpt_ms.push_back(c / 1e6);
    }
    if (dur == durable) client_push.push_back(push_ns / n);
  }
  out.Set("net.connect_ms", Median(connect_ms), "ms");
  out.Set("net.client_push_ns_per_trace", Median(client_push), "ns");
  out.Set("durable.checkpoint_ms", Median(ckpt_ms), "ms");
  for (const auto& d : dirs) std::filesystem::remove_all(d);
}

// ------------------------------------------------------------ workloads

void RunOffline(const Args& a, bool sharded, Outcome& out) {
  const std::string dir = a.work_dir + "/traces";
  std::filesystem::create_directories(dir);
  const HistorySpec spec{sharded ? HistoryKind::kZipf : HistoryKind::kRwPlus,
                         sharded ? kZipfTxns : kRwPlusTxns, a.seed, 0.0};
  History h;
  leopard::Status written;
  const double setup_s = TimedSetup([&] {
    h = Generate(spec);
    written = WriteTraceFiles(h, dir);
  });
  out.Record(written, "");

  const PassOptions po = Shape(sharded);
  // The one-shard verdict on the same files: clean, and the reference the
  // sharded engine must reproduce.
  PassOptions one = Shape(false);
  one.sample_memory = !sharded;
  const PassResult ref = OfflinePass(dir, one);
  out.Record(ref.status, CheckCleanPass(ref.report, h.traces));
  auto check = [&](const PassResult& p) {
    return sharded ? CheckSameBugs(p.report.bugs, ref.report.bugs)
                   : CheckCleanPass(p.report, h.traces);
  };
  size_t peak = ref.peak_bytes;
  if (sharded) {
    PassOptions mo = po;
    mo.sample_memory = true;
    const PassResult m = OfflinePass(dir, mo);
    out.Record(m.status, check(m));
    peak = m.peak_bytes;
  }
  if (a.trace) {
    MeasureLayers({h}, sharded, false, a.seconds, a.work_dir, out);
    return;
  }
  // Per-pass times. Throughput and latency come from the fastest pass: other
  // tenants of a shared host only ever add time (their memory traffic slows
  // a pass by up to two thirds), and on the reference host the fastest pass
  // of a 20-25 s window spread least from window to window (README.md).
  std::vector<double> wall, drain;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  do {
    const PassResult p = OfflinePass(dir, po);
    out.Record(p.status, check(p));
    wall.push_back(Secs(p.wall_ns));
    drain.push_back(Secs(p.drain_ns));
  } while (NowNs() < deadline);
  const double traces = static_cast<double>(h.traces);
  out.Set("verify_tps", traces / Fastest(wall), "traces/s");
  out.Set("job_ms", Fastest(wall) * 1e3, "ms");
  out.Set("drain_ms", Fastest(drain) * 1e3, "ms");
  out.Set("state_peak_bytes", static_cast<double>(peak), "bytes");
  out.Set("setup_s", setup_s, "s");
}

void RunServe(const Args& a, bool durable, Outcome& out) {
  std::vector<History> jobs(kJobsPerRound);
  const double setup_s = TimedSetup([&] {
    for (uint32_t j = 0; j < kJobsPerRound; ++j) {
      const bool faulty = j + 1 == kJobsPerRound;
      jobs[j] = Generate({HistoryKind::kSmallBank, kJobTxns, JobSeed(a.seed, j),
                          faulty ? kDropLockProb : 0.0});
    }
  });
  // In-process verdicts of each job's history, and the engine's peak state.
  std::vector<JobExpect> expect(kJobsPerRound);
  size_t peak = 0;
  for (uint32_t j = 0; j < kJobsPerRound; ++j) {
    PassOptions po = Shape(false);
    po.sample_memory = true;
    const PassResult p = MemoryPass(jobs[j], po);
    out.Record(p.status, jobs[j].injected == 0
                             ? CheckCleanPass(p.report, jobs[j].traces)
                             : "");
    expect[j] = {jobs[j].traces, jobs[j].injected, p.report.bugs};
    peak = std::max(peak, p.peak_bytes);
  }
  if (a.trace) {
    MeasureLayers(jobs, false, durable, a.seconds, a.work_dir, out);
    return;
  }
  std::vector<double> job_ms, drain_ms, verify_tps;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t n_jobs = 0;
  do {
    for (uint32_t j = 0; j < kJobsPerRound; ++j) {
      JobOptions jo;
      jo.durable = durable;
      jo.state_dir = a.work_dir + "/state_" + std::to_string(n_jobs++);
      // Three checkpoints land mid-job.
      jo.checkpoint_every = jobs[j].traces / 4;
      std::filesystem::remove_all(jo.state_dir);
      const JobResult r = RunServeJob(jobs[j], jo);
      std::string why = CheckServeJob(r.verdict, expect[j]);
      if (why.empty() && durable && r.status.ok()) {
        why = CheckRecovery(jo.state_dir, r.verdict.pushed,
                            r.verdict.violations);
      }
      out.Record(r.status, why);
      std::filesystem::remove_all(jo.state_dir);
      job_ms.push_back(r.job_ns / 1e6);
      drain_ms.push_back(r.drain_ns / 1e6);
      verify_tps.push_back(r.verdict.pushed / Secs(r.push_ns + r.drain_ns));
    }
  } while (NowNs() < deadline);
  // Job and drain times sit on the 200 ms accept-poll floor: medians.
  out.Set("verify_tps", Median(verify_tps), "traces/s");
  out.Set("job_ms", Median(job_ms), "ms");
  out.Set("drain_ms", Median(drain_ms), "ms");
  out.Set("state_peak_bytes", static_cast<double>(peak), "bytes");
  out.Set("setup_s", setup_s, "s");
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return !a.work_dir.empty() && (a.selftest || !a.workload.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: leopard_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR | --selftest --work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(a.work_dir);
  if (a.selftest) return SelfTest(a.work_dir) == 0 ? 0 : 1;
  Outcome out;
  if (a.workload == "offline_rwplus") {
    RunOffline(a, false, out);
  } else if (a.workload == "offline_zipf_sharded") {
    RunOffline(a, true, out);
  } else if (a.workload == "serve_smallbank") {
    RunServe(a, false, out);
  } else if (a.workload == "serve_smallbank_durable") {
    RunServe(a, true, out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  for (const auto& [name, m] : out.metrics) {
    std::printf("%-36s %16.4f %s\n", name.c_str(), m.first, m.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.first, m.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

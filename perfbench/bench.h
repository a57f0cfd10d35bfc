// Shared declarations of the Leopard benchmark (see README.md in this
// directory). The benchmark is a client of the library: it generates seeded
// histories, drives the public entry points of each layer, and times the
// calls from outside.
#ifndef LEOPARD_PERFBENCH_BENCH_H_
#define LEOPARD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"
#include "verifier/bug.h"
#include "verifier/config.h"
#include "verifier/sharded_leopard.h"

namespace perfbench {

// ---------------------------------------------------------------- inputs

enum class HistoryKind { kRwPlus, kZipf, kSmallBank };

/// What to generate: a history from MiniDB (MVCC + 2PL + SSI, SERIALIZABLE),
/// collected by the virtual-time simulator with kClients client streams.
struct HistorySpec {
  HistoryKind kind = HistoryKind::kRwPlus;
  uint64_t txns = 0;
  uint64_t seed = 0;
  double drop_lock_prob = 0.0;  ///< planted lock-dropping fault rate
};

constexpr uint32_t kClients = 4;

struct History {
  std::vector<std::vector<leopard::Trace>> streams;  ///< per client, ts_bef order
  /// (stream, index) of every trace in global ts_bef order: the order a
  /// client pushes a multi-stream history to the server.
  std::vector<std::pair<uint32_t, uint32_t>> arrival;
  uint64_t traces = 0;
  uint64_t injected = 0;  ///< faults MiniDB's FaultInjector planted
};

History Generate(const HistorySpec& spec);
leopard::Status WriteTraceFiles(const History& h, const std::string& dir);
std::string TraceFilePath(const std::string& dir, uint32_t client);

/// The configuration `leopard verify` uses for MiniDB at SERIALIZABLE.
leopard::VerifierConfig EngineConfig();

// ------------------------------------------------------------ checks

/// Canonical form of a verdict: bug type, key and involved transactions.
using Verdict = std::pair<int, std::pair<leopard::Key, std::vector<leopard::TxnId>>>;
std::vector<Verdict> Verdicts(const std::vector<leopard::BugDescriptor>& bugs);

/// Each check returns an empty string when its property holds, otherwise a
/// one-line description of what was violated.
std::string CheckCleanPass(const leopard::VerifyReport& report,
                           uint64_t traces_in_input);
std::string CheckSameBugs(const std::vector<leopard::BugDescriptor>& got,
                          const std::vector<leopard::BugDescriptor>& want);

struct JobExpect {
  uint64_t traces = 0;    ///< traces in the job's history
  uint64_t injected = 0;  ///< faults planted into that history
  std::vector<leopard::BugDescriptor> reference;  ///< in-process verdicts
};
struct JobVerdict {
  uint64_t pushed = 0;
  uint64_t traces_verified = 0;  ///< from kBye
  std::vector<leopard::BugDescriptor> violations;  ///< received over the wire
};
std::string CheckServeJob(const JobVerdict& got, const JobExpect& want);

/// Recovers `state_dir` in a fresh server and checks that the recovered
/// verifier accounts for every pushed trace and reproduces the verdicts.
std::string CheckRecovery(const std::string& state_dir, uint64_t pushed,
                          const std::vector<leopard::BugDescriptor>& verdicts);

/// Feeds each check an input on which it must fail; returns the number of
/// checks that failed to fire (0 = all good).
int SelfTest(const std::string& work_dir);

// ------------------------------------------------------ offline passes

struct PassOptions {
  leopard::VerifierConfig config;
  uint32_t n_shards = 1;
  uint32_t n_workers = 0;
  bool metrics = true;        ///< attach a registry, as `leopard verify` does
  bool trace = false;         ///< time every layer call (traced run)
  bool sample_memory = false; ///< sample ApproxMemoryBytes() every 4096 traces
};

struct PassResult {
  leopard::Status status;
  leopard::VerifyReport report;
  uint64_t traces = 0;
  uint64_t file_bytes = 0;
  uint64_t wall_ns = 0;    ///< first file read to final report
  uint64_t drain_ns = 0;   ///< last push to final report
  size_t peak_bytes = 0;
  double cpu_s = 0;        ///< process CPU time during the pass
  // Traced runs only: time inside each layer's calls.
  uint64_t read_ns = 0, push_ns = 0, dispatch_ns = 0, process_ns = 0,
           finish_ns = 0;
  uint64_t kind_ns[3] = {0, 0, 0};  ///< read, write, terminal Process calls
  uint64_t kind_n[3] = {0, 0, 0};
  std::vector<double> terminal_samples;  ///< per terminal Process call, ns
};

/// One `leopard verify --in` pass over the trace files in `dir`:
/// ReadTraceFile per client, TwoLevelPipeline, then the engine.
PassResult OfflinePass(const std::string& dir, const PassOptions& options);

/// The same pipeline and engine over an in-memory history (no files).
PassResult MemoryPass(const History& h, const PassOptions& options);

// ---------------------------------------------------------- serve jobs

struct JobOptions {
  bool durable = false;
  std::string state_dir;
  uint64_t checkpoint_every = 0;  ///< pushed traces between checkpoints
};

struct JobResult {
  leopard::Status status;
  JobVerdict verdict;
  uint64_t connect_ns = 0;  ///< Connect
  uint64_t push_ns = 0;     ///< first Push to the last Push returning
  uint64_t drain_ns = 0;    ///< last Push returning to kBye
  uint64_t job_ns = 0;      ///< Connect to kBye
  std::vector<uint64_t> checkpoint_ns;  ///< each TriggerCheckpoint call
};

/// One verification job: a fresh in-process VerifierServer (one shard) and
/// one VerifierClient pushing `h` in arrival order, then Finish -> kBye.
JobResult RunServeJob(const History& h, const JobOptions& options);

// ------------------------------------------------------ layer replays

/// Isolated replays of single layers over a history; each returns the
/// total nanoseconds spent in the layer's calls (and bytes produced).
struct WireReplay {
  uint64_t encode_ns = 0, decode_ns = 0, wire_bytes = 0;
  leopard::Status status;
};
WireReplay ReplayWire(const History& h, size_t batch_traces);

struct WalReplayResult {
  uint64_t append_ns = 0, bytes = 0;
  leopard::Status status;
};
WalReplayResult ReplayWal(const History& h, const std::string& dir,
                          size_t batch_traces);

/// Pushes and dispatches interleaved in arrival order through a pipeline
/// feeding a one-shard verifier; returns each trace's hold in the pipeline
/// (push to dispatch), in ns.
std::vector<double> ReplayHold(const History& h,
                               const leopard::VerifierConfig& config);

/// Pushes the history into an in-process OnlineVerifier (one shard) and
/// waits for the report; returns push-to-report ns and the report.
uint64_t ReplayOnline(const History& h, const leopard::VerifierConfig& config,
                      leopard::VerifyReport* report);

// ------------------------------------------------------------- util

uint64_t NowNs();
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // LEOPARD_PERFBENCH_BENCH_H_

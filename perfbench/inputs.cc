// Seeded input generation (the benchmark's set-up) and verdict canonical
// form. Nothing here is timed except as setup_s.
#include <algorithm>
#include <chrono>
#include <memory>

#include "bench.h"
#include "harness/sim_runner.h"
#include "trace/trace_io.h"
#include "txn/database.h"
#include "verifier/mechanism_table.h"
#include "workload/blindw.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace perfbench {

using leopard::Trace;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

leopard::VerifierConfig EngineConfig() {
  return leopard::ConfigForMiniDb(leopard::Protocol::kMvcc2plSsi,
                                  leopard::IsolationLevel::kSerializable);
}

namespace {

std::unique_ptr<leopard::Workload> MakeWorkload(HistoryKind kind) {
  switch (kind) {
    case HistoryKind::kRwPlus: {
      leopard::BlindWWorkload::Options o;
      o.variant = leopard::BlindWVariant::kReadWriteRange;
      return std::make_unique<leopard::BlindWWorkload>(o);
    }
    case HistoryKind::kZipf: {
      leopard::YcsbWorkload::Options o;
      o.mix = leopard::YcsbMix::kA;
      o.theta = 0.99;
      return std::make_unique<leopard::YcsbWorkload>(o);
    }
    case HistoryKind::kSmallBank:
      return std::make_unique<leopard::SmallBankWorkload>(
          leopard::SmallBankWorkload::Options());
  }
  return nullptr;
}

}  // namespace

History Generate(const HistorySpec& spec) {
  auto workload = MakeWorkload(spec.kind);
  leopard::Database::Options dbo;
  dbo.protocol = leopard::Protocol::kMvcc2plSsi;
  dbo.isolation = leopard::IsolationLevel::kSerializable;
  // PostgreSQL-style blocking locks, as the repository's benches model.
  dbo.lock_wait = leopard::LockWaitPolicy::kWaitDie;
  dbo.faults.drop_lock_prob = spec.drop_lock_prob;
  dbo.fault_seed = spec.seed;
  leopard::Database db(dbo);
  leopard::SimOptions so;
  so.clients = kClients;
  so.total_txns = spec.txns;
  so.seed = spec.seed;
  leopard::SimRunner runner(&db, workload.get(), so);
  leopard::RunResult run = runner.Run();

  History h;
  h.injected = db.injected_fault_count();
  h.streams = std::move(run.client_traces);
  h.streams.resize(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint32_t i = 0; i < h.streams[c].size(); ++i) {
      h.arrival.emplace_back(c, i);
    }
  }
  // Global ts_bef order; ties keep stream order, and within a stream the
  // index order, so each stream is still pushed in its own order.
  std::stable_sort(h.arrival.begin(), h.arrival.end(),
                   [&h](const auto& a, const auto& b) {
                     return h.streams[a.first][a.second].ts_bef() <
                            h.streams[b.first][b.second].ts_bef();
                   });
  h.traces = h.arrival.size();
  return h;
}

std::string TraceFilePath(const std::string& dir, uint32_t client) {
  return dir + "/leopard_client_" + std::to_string(client) + ".trc";
}

leopard::Status WriteTraceFiles(const History& h, const std::string& dir) {
  for (uint32_t c = 0; c < h.streams.size(); ++c) {
    leopard::Status s = leopard::WriteTraceFile(TraceFilePath(dir, c),
                                                h.streams[c]);
    if (!s.ok()) return s;
  }
  return leopard::Status::Ok();
}

std::vector<Verdict> Verdicts(const std::vector<leopard::BugDescriptor>& bugs) {
  std::vector<Verdict> out;
  out.reserve(bugs.size());
  for (const auto& b : bugs) {
    std::vector<leopard::TxnId> txns = b.txns;
    std::sort(txns.begin(), txns.end());
    out.push_back({static_cast<int>(b.type), {b.key, std::move(txns)}});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench

// Offline verification passes and the isolated single-layer replays.
#include <sys/resource.h>

#include <filesystem>
#include <memory>

#include "bench.h"
#include "durable/wal.h"
#include "harness/online_verifier.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "pipeline/two_level_pipeline.h"
#include "trace/trace_io.h"

namespace perfbench {

using leopard::Trace;

namespace {

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int KindIndex(leopard::OpType op) {
  switch (op) {
    case leopard::OpType::kRead:
      return 0;
    case leopard::OpType::kWrite:
      return 1;
    default:
      return 2;
  }
}

/// Pipeline + engine half of a pass; `t0` and `cpu0` are the wall clock and
/// the process CPU time when the pass started, before its input was read.
void VerifyStreams(std::vector<std::vector<Trace>> streams,
                   const PassOptions& o, uint64_t t0, double cpu0,
                   PassResult& r) {
  leopard::obs::MetricsRegistry registry;
  leopard::obs::MetricsRegistry* metrics = o.metrics ? &registry : nullptr;
  const auto clients = static_cast<uint32_t>(streams.size());
  uint64_t a = o.trace ? NowNs() : 0;
  leopard::TwoLevelPipeline pipeline(clients);
  if (metrics != nullptr) pipeline.AttachMetrics(metrics);
  for (uint32_t c = 0; c < clients; ++c) {
    r.traces += streams[c].size();
    for (auto& t : streams[c]) pipeline.Push(c, std::move(t));
    pipeline.Close(c);
  }
  const uint64_t pushed = NowNs();
  if (o.trace) r.push_ns = pushed - a;

  leopard::ShardedLeopard::Options eo;
  eo.n_shards = o.n_shards;
  eo.n_workers = o.n_workers;
  eo.metrics = metrics;
  leopard::ShardedLeopard engine(o.config, eo);
  uint64_t n = 0;
  if (!o.trace) {
    while (auto t = pipeline.Dispatch()) {
      engine.Process(*t);
      if (o.sample_memory && (++n & 4095) == 0 && o.n_shards == 1) {
        r.peak_bytes = std::max(r.peak_bytes, engine.ApproxMemoryBytes());
      }
    }
    engine.Finish();
  } else {
    a = NowNs();
    while (true) {
      auto t = pipeline.Dispatch();
      const uint64_t b = NowNs();
      r.dispatch_ns += b - a;
      if (!t) break;
      engine.Process(*t);
      a = NowNs();
      const uint64_t d = a - b;
      r.process_ns += d;
      const int k = KindIndex(t->op);
      r.kind_ns[k] += d;
      ++r.kind_n[k];
      if (k == 2) r.terminal_samples.push_back(static_cast<double>(d));
    }
    engine.Finish();
    r.finish_ns = NowNs() - a;
  }
  r.report = engine.report();
  const uint64_t end = NowNs();
  r.wall_ns = end - t0;
  r.drain_ns = end - pushed;
  r.cpu_s = CpuSeconds() - cpu0;
  // A sharded engine exposes its state only once its workers are joined.
  if (o.sample_memory) {
    r.peak_bytes = std::max(r.peak_bytes, engine.ApproxMemoryBytes());
  }
}

}  // namespace

PassResult OfflinePass(const std::string& dir, const PassOptions& o) {
  PassResult r;
  std::vector<std::vector<Trace>> streams(kClients);
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  for (uint32_t c = 0; c < kClients; ++c) {
    auto got = leopard::ReadTraceFile(TraceFilePath(dir, c));
    if (!got.ok()) {
      r.status = got.status();
      return r;
    }
    streams[c] = std::move(*got);
  }
  if (o.trace) r.read_ns = NowNs() - t0;
  VerifyStreams(std::move(streams), o, t0, cpu0, r);
  std::error_code ec;
  for (uint32_t c = 0; c < kClients; ++c) {
    r.file_bytes += std::filesystem::file_size(TraceFilePath(dir, c), ec);
  }
  return r;
}

PassResult MemoryPass(const History& h, const PassOptions& o) {
  PassResult r;
  std::vector<std::vector<Trace>> streams = h.streams;
  VerifyStreams(std::move(streams), o, NowNs(), CpuSeconds(), r);
  return r;
}

WireReplay ReplayWire(const History& h, size_t batch_traces) {
  WireReplay out;
  for (uint32_t s = 0; s < h.streams.size(); ++s) {
    const auto& stream = h.streams[s];
    for (size_t i = 0; i < stream.size(); i += batch_traces) {
      std::vector<Trace> batch(
          stream.begin() + static_cast<std::ptrdiff_t>(i),
          stream.begin() + static_cast<std::ptrdiff_t>(
                               std::min(stream.size(), i + batch_traces)));
      const uint64_t a = NowNs();
      std::string frame = leopard::net::EncodeFrame(
          leopard::net::FrameType::kBatch,
          leopard::net::EncodeBatch(s, batch, a));
      const uint64_t b = NowNs();
      auto decoded = leopard::net::DecodeBatch(
          frame.substr(leopard::net::kFrameHeaderBytes));
      const uint64_t c = NowNs();
      out.encode_ns += b - a;
      out.decode_ns += c - b;
      out.wire_bytes += frame.size();
      if (!decoded.ok()) {
        out.status = decoded.status();
        return out;
      }
      if (decoded->traces.size() != batch.size()) {
        out.status = leopard::Status::Internal("batch round trip lost traces");
        return out;
      }
    }
  }
  return out;
}

WalReplayResult ReplayWal(const History& h, const std::string& dir,
                          size_t batch_traces) {
  WalReplayResult out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    leopard::durable::WalWriter wal;
    out.status = wal.Open(dir, 0, leopard::durable::WalWriter::Options());
    for (uint32_t c = 0; c < h.streams.size() && out.status.ok(); ++c) {
      out.status = wal.AppendAddClient(c);
    }
    for (uint32_t s = 0; s < h.streams.size() && out.status.ok(); ++s) {
      const auto& stream = h.streams[s];
      for (size_t i = 0; i < stream.size() && out.status.ok();
           i += batch_traces) {
        const size_t end = std::min(stream.size(), i + batch_traces);
        const uint64_t a = NowNs();
        for (size_t j = i; j < end && out.status.ok(); ++j) {
          out.status = wal.AppendTrace(stream[j]);
        }
        if (out.status.ok()) out.status = wal.Sync();
        out.append_ns += NowNs() - a;
      }
    }
    out.bytes = wal.bytes_appended();
  }
  std::filesystem::remove_all(dir);
  return out;
}

std::vector<double> ReplayHold(const History& h,
                               const leopard::VerifierConfig& config) {
  std::vector<double> holds;
  holds.reserve(h.traces);
  leopard::TwoLevelPipeline pipeline(static_cast<uint32_t>(h.streams.size()));
  leopard::Leopard verifier(config);
  auto drain = [&] {
    while (auto t = pipeline.Dispatch()) {
      holds.push_back(static_cast<double>(NowNs() - t->ingest_ns));
      verifier.Process(*t);
    }
  };
  for (const auto& [s, i] : h.arrival) {
    Trace t = h.streams[s][i];
    t.ingest_ns = NowNs();
    pipeline.Push(s, std::move(t));
    drain();
  }
  for (uint32_t c = 0; c < h.streams.size(); ++c) pipeline.Close(c);
  drain();
  verifier.Finish();
  return holds;
}

uint64_t ReplayOnline(const History& h, const leopard::VerifierConfig& config,
                      leopard::VerifyReport* report) {
  leopard::OnlineVerifier online(static_cast<uint32_t>(h.streams.size()),
                                 config);
  const uint64_t t0 = NowNs();
  for (const auto& [s, i] : h.arrival) online.Push(s, h.streams[s][i]);
  for (uint32_t c = 0; c < h.streams.size(); ++c) online.Close(c);
  const leopard::VerifyReport& r = online.WaitReport();
  const uint64_t ns = NowNs() - t0;
  if (report != nullptr) *report = r;
  return ns;
}

}  // namespace perfbench

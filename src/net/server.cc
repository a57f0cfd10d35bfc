#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/state_codec.h"
#include "diagnose/report.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "verifier/state_serde.h"

namespace leopard {
namespace net {

namespace {
constexpr uint64_t kSendTimeoutMs = 5000;
constexpr size_t kRecvChunk = 64 * 1024;
}  // namespace

VerifierServer::VerifierServer(const VerifierConfig& config,
                               const Options& options)
    : config_(config), opts_(options), metrics_(options.metrics) {
  if (metrics_ != nullptr) {
    m_connections_ = metrics_->counter("net.connections");
    m_sessions_done_ = metrics_->counter("net.sessions_completed");
    m_disconnects_ = metrics_->counter("net.disconnects");
    m_frames_in_ = metrics_->counter("net.frames_in");
    m_bytes_in_ = metrics_->counter("net.bytes_in");
    m_traces_in_ = metrics_->counter("net.traces_in");
    m_decode_errors_ = metrics_->counter("net.decode_errors");
    m_stalls_ = metrics_->counter("net.backpressure_stalls");
    m_stall_ns_ = metrics_->counter("net.backpressure_stall_ns");
    m_overrides_ = metrics_->counter("net.backpressure_overrides");
    m_violations_sent_ = metrics_->counter("net.violations_sent");
    m_violations_unroutable_ = metrics_->counter("net.violations_unroutable");
    m_report_send_errors_ = metrics_->counter("net.report_send_errors");
    m_active_ = metrics_->gauge("net.active_connections");
    m_inflight_ = metrics_->gauge("net.inflight_bytes");
    m_clock_skew_ = metrics_->counter("net.ingest_clock_skew");
    m_report_latency_ = metrics_->histogram("net.violation_report_ns");
    m_stage_ingest_ = metrics_->histogram("stage.ingest_to_read_ns");
    m_stage_report_ = metrics_->histogram("stage.read_to_report_ns");
    if (!opts_.state_dir.empty()) {
      m_wal_appends_ = metrics_->counter("durable.wal.appends");
      m_wal_bytes_ = metrics_->counter("durable.wal.bytes");
      m_wal_errors_ = metrics_->counter("durable.wal.errors");
      m_checkpoints_ = metrics_->counter("durable.checkpoints");
      m_checkpoint_errors_ = metrics_->counter("durable.checkpoint_errors");
      m_wal_segments_g_ = metrics_->gauge("durable.wal.segments");
      m_ckpt_ns_ = metrics_->histogram("durable.checkpoint_ns");
    }
  }
}

VerifierServer::~VerifierServer() {
  Shutdown();
  WaitReport();
}

Status VerifierServer::Start() {
  auto listener = Listener::Listen(opts_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();

  OnlineVerifier::Options vo;
  vo.n_shards = opts_.n_shards;
  vo.dynamic_clients = true;
  vo.obs.metrics = metrics_;
  vo.obs.progress_interval_ms = opts_.progress_interval_ms;
  vo.obs.print_progress = opts_.print_progress;
  vo.obs.events = opts_.events;
  vo.obs.watchdog = opts_.watchdog;
  vo.on_bug = [this](const BugDescriptor& bug) { OnBug(bug); };
  // Client 0 is the server's gate stream: held open (and empty) it pins the
  // pipeline watermark at 0 so nothing dispatches before all expected
  // sessions joined — concurrently-connecting replay clients with
  // overlapping virtual timestamps then merge in correct global order.
  gate_client_ = 0;
  durable_ = !opts_.state_dir.empty();
  if (durable_) {
    Status s = ckpts_.Init(opts_.state_dir);
    if (s.ok()) s = RecoverState(vo);
    if (!s.ok()) return s;
  } else {
    online_ = std::make_unique<OnlineVerifier>(1, config_, vo);
    if (opts_.expected_sessions == 0) {
      // Run-until-shutdown service: no join barrier; sessions are admitted
      // at the live dispatch floor instead.
      online_->Close(gate_client_);
      gate_closed_ = true;
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (durable_ && opts_.checkpoint_interval_ms > 0) {
    ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  if (opts_.diagnose) {
    diag_thread_ = std::thread([this] { DiagnoseLoop(); });
  }
  if (opts_.events != nullptr) {
    opts_.events->Recordf(obs::EventSeverity::kInfo, "net.server",
                          "listening on port %u (%u shards)",
                          static_cast<unsigned>(port_),
                          static_cast<unsigned>(opts_.n_shards));
  }
  return Status::Ok();
}

void VerifierServer::AcceptLoop() {
  obs::Watchdog::Slot* wd = opts_.watchdog != nullptr
                                ? opts_.watchdog->Register("net.acceptor")
                                : nullptr;
  while (true) {
    // Blocks until a client connects or Shutdown()/WaitReport() wakes the
    // listener — idleness between connections, not a wedge.
    if (wd != nullptr) wd->Suspend();
    auto sock = listener_.Accept();
    if (wd != nullptr) wd->Resume();
    if (!sock.ok()) break;  // woken by a drain, or fatal
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) break;
    auto session = std::make_unique<Session>();
    session->id = static_cast<uint32_t>(sessions_.size());
    session->sock = std::move(*sock);
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    if (m_connections_ != nullptr) m_connections_->Inc();
    if (m_active_ != nullptr) m_active_->Add(1);
    if (opts_.events != nullptr) {
      opts_.events->Recordf(obs::EventSeverity::kInfo, "net.server",
                            "session %u accepted", raw->id);
    }
    raw->reader = std::thread([this, raw] { ReaderLoop(*raw); });
  }
  if (opts_.watchdog != nullptr) opts_.watchdog->Retire(wd);
}

void VerifierServer::ReaderLoop(Session& session) {
  if (opts_.watchdog != nullptr) {
    char name[32];
    std::snprintf(name, sizeof(name), "net.session%u.reader", session.id);
    session.wd_slot = opts_.watchdog->Register(name);
  }
  // The receive timeout is the idle deadline itself: Recv wakes on data, on
  // EOF (including the ShutdownBoth of FailSession, SendToSession and
  // WaitReport), or after idle_timeout_ms of silence.
  session.sock.SetRecvTimeoutMs(opts_.idle_timeout_ms);
  session.sock.SetSendTimeoutMs(kSendTimeoutMs);
  FrameDecoder decoder(opts_.max_frame_bytes);
  char buf[kRecvChunk];
  bool alive = true;
  while (alive) {
    // A reader waiting on its peer is idle, not wedged.
    if (session.wd_slot != nullptr) session.wd_slot->Suspend();
    auto got = session.sock.Recv(buf, sizeof(buf));
    if (session.wd_slot != nullptr) session.wd_slot->Resume();
    if (!got.ok()) {
      if (got.status().code() != StatusCode::kBusy) break;  // peer gone
      // Idle deadline: enforced only on sessions that still owe us stream
      // data — a drained session legitimately sits idle waiting for the
      // server-wide report.
      bool all_closed =
          session.n_streams > 0 &&
          std::all_of(session.stream_closed.begin(),
                      session.stream_closed.end(),
                      [](uint8_t c) { return c != 0; });
      if (!all_closed) {
        FailSession(session, "idle timeout");
        break;
      }
      continue;
    }
    if (*got == 0) break;  // orderly EOF
    if (m_bytes_in_ != nullptr) m_bytes_in_->Inc(*got);
    decoder.Feed(buf, *got);
    while (alive) {
      Frame frame;
      Status s = decoder.Poll(frame);
      if (s.code() == StatusCode::kBusy) break;
      if (!s.ok()) {
        if (m_decode_errors_ != nullptr) m_decode_errors_->Inc();
        FailSession(session, s.message());
        alive = false;
        break;
      }
      if (!HandleFrame(session, std::move(frame))) alive = false;
    }
  }
  FinishSession(session);
  if (opts_.watchdog != nullptr) opts_.watchdog->Retire(session.wd_slot);
}

bool VerifierServer::HandleFrame(Session& session, Frame frame) {
  session.last_frame_ns.store(obs::NowNs(), std::memory_order_relaxed);
  if (m_frames_in_ != nullptr) m_frames_in_->Inc();
  switch (frame.type) {
    case FrameType::kHello:
      return HandleHello(session, frame);
    case FrameType::kBatch:
      return HandleBatch(session, frame);
    case FrameType::kCloseStream: {
      auto msg = DecodeCloseStream(frame.payload);
      if (!msg.ok() || session.n_streams == 0 ||
          msg->stream >= session.n_streams) {
        if (m_decode_errors_ != nullptr) m_decode_errors_->Inc();
        FailSession(session, "bad CLOSE_STREAM");
        return false;
      }
      if (!session.stream_closed[msg->stream]) {
        session.stream_closed[msg->stream] = 1;
        online_->Close(session.base_client + msg->stream);
        bool all_closed = std::all_of(session.stream_closed.begin(),
                                      session.stream_closed.end(),
                                      [](uint8_t c) { return c != 0; });
        if (all_closed) CountCompleted(session);
      }
      return true;
    }
    case FrameType::kError:
      // The peer gave up; its explanation is advisory. End the session.
      return false;
    default:
      if (m_decode_errors_ != nullptr) m_decode_errors_->Inc();
      FailSession(session, std::string("unexpected frame ") +
                               FrameTypeName(frame.type));
      return false;
  }
}

bool VerifierServer::HandleHello(Session& session, const Frame& frame) {
  auto hello = DecodeHello(frame.payload);
  if (!hello.ok()) {
    if (m_decode_errors_ != nullptr) m_decode_errors_->Inc();
    FailSession(session, "bad HELLO");
    return false;
  }
  if (session.n_streams != 0) {
    FailSession(session, "duplicate HELLO");
    return false;
  }
  if (hello->version < kMinWireVersion) {
    FailSession(session, "wire version mismatch: client " +
                             std::to_string(hello->version) + ", server " +
                             std::to_string(kWireVersion) + " (min " +
                             std::to_string(kMinWireVersion) + ")");
    return false;
  }
  // Negotiate down: a newer client is served at our version, an older one
  // at its own (it then receives v1 violation payloads).
  session.version = std::min(hello->version, kWireVersion);
  if (hello->n_streams == 0 || hello->n_streams > opts_.max_streams) {
    FailSession(session, "invalid stream count");
    return false;
  }
  HelloAckMsg ack;
  ack.version = session.version;
  bool resumed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      FailSession(session, "server draining");
      return false;
    }
    session.resumable = hello->resumable;
    if (hello->has_resume) {
      // v5 resume: re-attach to the stream state a resumable session parked
      // when its connection dropped. No match (wrong base, stream-count
      // mismatch, state lost to a restart) falls back to a fresh
      // allocation, which the client detects by the differing base id.
      auto it = parked_.find(hello->resume_base);
      if (it != parked_.end() && it->second.n_streams == hello->n_streams) {
        ParkedSession saved = std::move(it->second);
        parked_.erase(it);
        const uint32_t base = hello->resume_base;
        session.base_client = base;
        session.floor.resize(hello->n_streams);
        session.last_ts = saved.last_ts;
        session.stream_closed = saved.stream_closed;
        // The levels the verifier already applied to these streams win over
        // anything the reconnecting HELLO declares.
        session.stream_ils = saved.stream_ils;
        ack.resume_floors.resize(hello->n_streams);
        for (uint32_t i = 0; i < hello->n_streams; ++i) {
          if (saved.stream_closed[i]) {
            // Cleanly closed before the disconnect; stays closed.
            session.floor[i] = saved.last_ts[i];
            ack.resume_floors[i] = saved.last_ts[i];
            continue;
          }
          auto reopened = online_->ReopenClient(base + i);
          if (!reopened.ok()) {
            // Drain committed between the stopping_ check and here; re-close
            // what we reopened and reject the session.
            for (uint32_t j = 0; j < i; ++j) {
              if (!saved.stream_closed[j]) online_->Close(base + j);
            }
            FailSession(session,
                        "server draining: " + reopened.status().message());
            return false;
          }
          // The reopen floor already covers everything dispatch handed out;
          // the stream's own last push keeps per-stream order seamless.
          session.floor[i] = std::max(reopened->floor, saved.last_ts[i]);
          ack.resume_floors[i] = session.floor[i];
          client_session_[base + i] = &session;
        }
        session.n_streams = hello->n_streams;
        ack.base_client = base;
        resumed = true;
      }
    }
    if (!resumed) {
    if (next_stream_slot_ + hello->n_streams > opts_.max_streams) {
      FailSession(session, "server at stream capacity");
      return false;
    }
    // All AddClient calls happen under mu_, so one session's streams get
    // contiguous verifier client ids.
    session.floor.resize(hello->n_streams);
    session.last_ts.assign(hello->n_streams, 0);
    session.stream_closed.assign(hello->n_streams, 0);
    // v4 mixed-isolation tail: streams past the declared list (or the whole
    // session, pre-v4) run at SERIALIZABLE — full-strength verification.
    session.stream_ils.assign(hello->n_streams,
                              IsolationLevel::kSerializable);
    for (size_t i = 0; i < hello->stream_ils.size(); ++i) {
      session.stream_ils[i] = hello->stream_ils[i];
    }
    for (uint32_t i = 0; i < hello->n_streams; ++i) {
      auto added = online_->AddClient();
      if (!added.ok()) {
        // The verifier was sealed (drain already under way) between our
        // stopping_ check and here; reject the session instead of letting a
        // late registration corrupt a draining pipeline.
        FailSession(session, "server draining: " + added.status().message());
        return false;
      }
      if (i == 0) session.base_client = added->id;
      session.floor[i] = added->floor;
      client_session_[added->id] = &session;
    }
    next_stream_slot_ += hello->n_streams;
    session.n_streams = hello->n_streams;
    ++sessions_handshaken_;
    if (!gate_closed_ && opts_.expected_sessions > 0 &&
        sessions_handshaken_ >= opts_.expected_sessions) {
      // The join barrier: every expected session is registered, dispatch
      // may begin.
      online_->Close(gate_client_);
      gate_closed_ = true;
    }
    ack.base_client = session.base_client;
    }  // !resumed
  }
  if (!resumed) {
    // WAL registrations go outside mu_ (durable_mu_ nests before mu_, never
    // after). Replay is idempotent by id, so an id both checkpointed and
    // logged here is skipped on recovery. A resumed session's ids were
    // already registered by its first handshake.
    for (uint32_t i = 0; i < session.n_streams; ++i) {
      WalAddClient(session.base_client + i);
    }
  }
  SendToSession(session, EncodeFrame(FrameType::kHelloAck,
                                     EncodeHelloAck(ack)));
  if (opts_.events != nullptr) {
    opts_.events->Recordf(obs::EventSeverity::kInfo, "net.server",
                          "session %u handshake: %u streams, wire v%u%s",
                          session.id, session.n_streams, session.version,
                          resumed ? " (resumed)" : "");
  }
  return true;
}

bool VerifierServer::HandleBatch(Session& session, const Frame& frame) {
  if (session.n_streams == 0) {
    FailSession(session, "BATCH before HELLO");
    return false;
  }
  auto batch = DecodeBatch(frame.payload);
  if (!batch.ok()) {
    if (m_decode_errors_ != nullptr) m_decode_errors_->Inc();
    FailSession(session, batch.status().message());
    return false;
  }
  if (batch->stream >= session.n_streams ||
      session.stream_closed[batch->stream]) {
    FailSession(session, "BATCH for invalid or closed stream");
    return false;
  }
  const ClientId client = session.base_client + batch->stream;
  Timestamp& last_ts = session.last_ts[batch->stream];
  const Timestamp floor = session.floor[batch->stream];
  size_t batch_bytes = 0;
  for (const Trace& t : batch->traces) {
    if (t.ts_bef() > t.ts_aft()) {
      FailSession(session, "trace with inverted interval");
      return false;
    }
    if (t.ts_bef() < floor || t.ts_bef() < last_ts) {
      // Either the stream violated its own non-decreasing ts_bef contract,
      // or a late-joining session replayed traces older than what the
      // verifier already dispatched past (admission floor).
      FailSession(session, "trace below stream order floor");
      return false;
    }
    last_ts = t.ts_bef();
    batch_bytes += t.ApproxBytes();
  }
  const uint64_t read_ns = obs::NowNs();
  if (batch->ingest_ns != 0 && m_stage_ingest_ != nullptr) {
    // v3 sessions stamp the batch at push time. Both stamps are steady-clock
    // reads, comparable only when client and server share a machine
    // (loopback deployments); cross-host skew shows up as negative deltas.
    // Those still count as a sample — dropping them would make this
    // histogram's count diverge from the other stage histograms' — they are
    // just clamped to zero and tallied separately.
    if (read_ns > batch->ingest_ns) {
      m_stage_ingest_->Record(read_ns - batch->ingest_ns);
    } else {
      m_stage_ingest_->Record(0);
      if (m_clock_skew_ != nullptr) m_clock_skew_->Inc();
    }
  }
  Backpressure(session, batch_bytes);
  const IsolationLevel stream_il = session.stream_ils[batch->stream];
  for (Trace& t : batch->traces) {
    t.client = client;
    // Session-declared isolation (v4 HELLO tail) combines weakest-wins with
    // the record's own tag, and is applied before the WAL append so a
    // replayed run re-derives identical per-txn levels.
    if (stream_il < t.il) t.il = stream_il;
    // Re-stamp with the server's read time: downstream stage histograms
    // (read->verify, read->certify, read->report) attribute latency *inside*
    // the verifier, independent of how long the client sat on the batch.
    // Stamped before the WAL append so replayed traces carry their client.
    t.ingest_ns = read_ns;
  }
  if (opts_.diagnose) {
    // Keep the history for the minimizer. A violation's offending traces
    // always precede it, so a snapshot taken when the bug surfaces is a
    // reproducing superset.
    std::lock_guard<std::mutex> lock(diag_mu_);
    recorded_.insert(recorded_.end(), batch->traces.begin(),
                     batch->traces.end());
  }
  const uint64_t n = batch->traces.size();
  {
    // Durable ordering: the WAL append, the routing-map update and the push
    // happen under durable_mu_, so a checkpoint cut (which also holds
    // durable_mu_) cleanly partitions every trace into "in the checkpoint"
    // or "in the log past the cut" — never both, never neither.
    std::unique_lock<std::mutex> durable_lock(durable_mu_, std::defer_lock);
    if (durable_) {
      durable_lock.lock();
      Status ws;
      for (const Trace& t : batch->traces) {
        ws = wal_.AppendTrace(t);
        if (!ws.ok()) break;
      }
      if (ws.ok()) ws = wal_.Sync();
      if (!ws.ok()) {
        // Lost durability is a failed session, not a poisoned verifier: the
        // client gets the error and can reconnect/retry once the disk
        // recovers; admitting the batch unlogged would silently break the
        // resume-with-identical-verdicts contract.
        if (m_wal_errors_ != nullptr) m_wal_errors_->Inc();
        if (opts_.events != nullptr) {
          opts_.events->Recordf(obs::EventSeverity::kError, "durable",
                                "WAL append failed: %s", ws.message().c_str());
        }
        durable_lock.unlock();
        FailSession(session, "WAL append failed: " + ws.message());
        return false;
      }
      wal_next_seq_.store(wal_.next_seq(), std::memory_order_relaxed);
      wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
      if (m_wal_appends_ != nullptr) m_wal_appends_->Inc(n);
      if (m_wal_bytes_ != nullptr) m_wal_bytes_->Inc(batch_bytes);
      if (m_wal_segments_g_ != nullptr) {
        m_wal_segments_g_->Set(static_cast<int64_t>(wal_.segment_count()));
      }
    }
    {
      // Record txn -> client before Push: a single-shard engine can surface
      // the violation (and route it) the moment the batch is verified.
      std::lock_guard<std::mutex> lock(mu_);
      for (const Trace& t : batch->traces) {
        txn_client_.emplace(t.txn, client);
      }
    }
    for (Trace& t : batch->traces) {
      online_->Push(client, std::move(t));
    }
    // Counted inside the durable scope so a checkpoint's saved totals agree
    // exactly with its cut (no batch half-counted across the boundary).
    pushed_bytes_.fetch_add(batch_bytes, std::memory_order_relaxed);
    traces_received_.fetch_add(n, std::memory_order_relaxed);
  }
  const uint64_t total_received =
      traces_received_.load(std::memory_order_relaxed);
  if (durable_ && opts_.checkpoint_every_traces > 0 &&
      total_received - traces_at_last_ckpt_.load(std::memory_order_relaxed) >=
          opts_.checkpoint_every_traces) {
    ckpt_thread_cv_.notify_one();
  }
  const uint64_t session_total =
      session.traces_received.fetch_add(n, std::memory_order_relaxed) + n;
  if (m_traces_in_ != nullptr) m_traces_in_->Inc(n);
  SendToSession(session,
                EncodeFrame(FrameType::kBatchAck,
                            EncodeBatchAck(BatchAckMsg{session_total})));
  return !session.defunct.load(std::memory_order_relaxed);
}

void VerifierServer::Backpressure(Session& session, size_t incoming_bytes) {
  auto inflight = [this] {
    uint64_t pushed = pushed_bytes_.load(std::memory_order_relaxed);
    uint64_t verified = online_->verified_bytes();
    return pushed > verified ? pushed - verified : 0;
  };
  uint64_t cur = inflight();
  if (m_inflight_ != nullptr) m_inflight_->Set(static_cast<int64_t>(cur));
  if (cur + incoming_bytes <= opts_.max_inflight_bytes) return;
  if (m_stalls_ != nullptr) m_stalls_->Inc();
  if (opts_.events != nullptr) {
    opts_.events->Recordf(
        obs::EventSeverity::kWarn, "net.server",
        "backpressure engaged on session %u: %llu MiB in flight", session.id,
        static_cast<unsigned long long>(cur >> 20));
  }
  const uint64_t start_ns = obs::NowNs();
  uint64_t verified = online_->verified_bytes();
  bool overrode = false;
  // A backpressured reader is TCP flow control doing its job, not a wedged
  // thread.
  if (session.wd_slot != nullptr) session.wd_slot->Suspend();
  // Wakes once per verified batch, on a drain, or after stall_override_ms
  // without progress. `verified` is read before each room check, so
  // progress that lands after the check ends the wait at once.
  while (!stopping_.load(std::memory_order_relaxed) &&
         inflight() + incoming_bytes > opts_.max_inflight_bytes) {
    const uint64_t now_verified =
        online_->WaitForProgress(verified, opts_.stall_override_ms, stopping_);
    if (now_verified == verified &&
        !stopping_.load(std::memory_order_relaxed)) {
      // Dispatch is starved on another stream's watermark, not on us;
      // blocking here would deadlock the very stream it waits for. Admit
      // the frame and account the override.
      if (m_overrides_ != nullptr) m_overrides_->Inc();
      overrode = true;
      break;
    }
    verified = now_verified;
  }
  if (session.wd_slot != nullptr) session.wd_slot->Resume();
  const uint64_t stalled_ns = obs::NowNs() - start_ns;
  if (m_stall_ns_ != nullptr) m_stall_ns_->Inc(stalled_ns);
  if (opts_.events != nullptr) {
    opts_.events->Recordf(
        obs::EventSeverity::kInfo, "net.server",
        "backpressure released on session %u after %llu ms%s", session.id,
        static_cast<unsigned long long>(stalled_ns / 1000000ull),
        overrode ? " (starvation override)" : "");
  }
  if (m_inflight_ != nullptr) {
    m_inflight_->Set(static_cast<int64_t>(inflight()));
  }
}

void VerifierServer::SendToSession(Session& session,
                                   const std::string& frame) {
  if (session.defunct.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(session.write_mu);
  Status s = session.sock.SendAll(frame.data(), frame.size());
  if (!s.ok()) {
    session.defunct.store(true, std::memory_order_relaxed);
    session.sock.ShutdownBoth();  // wake the reader: the session is over
  }
}

void VerifierServer::FailSession(Session& session,
                                 const std::string& message) {
  if (session.defunct.exchange(true)) return;
  if (opts_.events != nullptr) {
    opts_.events->Recordf(obs::EventSeverity::kError, "net.server",
                          "session %u failed: %s", session.id,
                          message.c_str());
  }
  std::lock_guard<std::mutex> lock(session.write_mu);
  std::string frame = EncodeFrame(FrameType::kError, EncodeError(message));
  session.sock.SendAll(frame.data(), frame.size());  // best effort
  session.sock.ShutdownBoth();
}

void VerifierServer::FinishSession(Session& session) {
  bool had_open = false;
  if (session.n_streams > 0) {
    // A resumable session that dropped with open streams is expected back:
    // a resume completes it, so it never counts as completed itself —
    // whether the drain began before or after we saw its EOF. Its
    // per-stream state is captured as it stands at disconnect, before the
    // force-close below.
    const bool dropped_resumable =
        session.resumable &&
        std::any_of(session.stream_closed.begin(), session.stream_closed.end(),
                    [](uint8_t c) { return c == 0; });
    ParkedSession p;
    if (dropped_resumable) {
      p.n_streams = session.n_streams;
      p.stream_ils = session.stream_ils;
      p.last_ts = session.last_ts;
      p.stream_closed = session.stream_closed;
    }
    // The streams are closed in the verifier meanwhile — an absent client
    // must not pin the watermark.
    for (uint32_t i = 0; i < session.n_streams; ++i) {
      if (!session.stream_closed[i]) {
        session.stream_closed[i] = 1;
        online_->Close(session.base_client + i);
        had_open = true;
      }
    }
    if (dropped_resumable) {
      // Parked only once its streams are closed: a resume HELLO that finds
      // the entry can always reopen them.
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_.load(std::memory_order_relaxed)) {
        parked_.emplace(session.base_client, std::move(p));
      }
    } else {
      CountCompleted(session);
    }
  }
  if (had_open && m_disconnects_ != nullptr) m_disconnects_->Inc();
  if (m_active_ != nullptr) m_active_->Add(-1);
  if (opts_.events != nullptr) {
    opts_.events->Recordf(
        obs::EventSeverity::kInfo, "net.server",
        "session %u closed (%llu traces%s)", session.id,
        static_cast<unsigned long long>(
            session.traces_received.load(std::memory_order_relaxed)),
        had_open ? ", streams force-closed" : "");
  }
}

void VerifierServer::CountCompleted(Session& session) {
  if (session.counted_complete.exchange(true)) return;
  // Under mu_: WaitReport tests the count under mu_ before it blocks, so an
  // unlocked increment could land between that test and the wait and its
  // notify would be lost.
  std::lock_guard<std::mutex> lock(mu_);
  sessions_completed_.fetch_add(1, std::memory_order_relaxed);
  if (m_sessions_done_ != nullptr) m_sessions_done_->Inc();
  drain_cv_.notify_all();
}

void VerifierServer::OnBug(const BugDescriptor& bug) {
  if (opts_.events != nullptr) {
    opts_.events->Recordf(obs::EventSeverity::kError, "verifier",
                          "violation: %s on key %llu", BugTypeName(bug.type),
                          static_cast<unsigned long long>(bug.key));
  }
  // Dispatcher thread. Minimization is far too slow for this thread: hand
  // the bug to the background worker (one diagnosis per distinct
  // (type, key), bounded by max_diagnoses).
  if (opts_.diagnose) {
    std::lock_guard<std::mutex> lock(diag_mu_);
    bool seen = false;
    for (const BugDescriptor& q : diag_queue_) {
      if (q.type == bug.type && q.key == bug.key) {
        seen = true;
        break;
      }
    }
    for (const diagnose::Diagnosis& d : diagnoses_) {
      if (d.bug.type == bug.type && d.bug.key == bug.key) {
        seen = true;
        break;
      }
    }
    if (!seen && diagnoses_enqueued_ < opts_.max_diagnoses) {
      ++diagnoses_enqueued_;
      diag_queue_.push_back(bug);
      diag_cv_.notify_one();
    }
  }
  // Route to every session owning one of the involved transactions; the
  // offending client learns about its violation even when an innocent
  // reader's transaction is also implicated.
  std::vector<Session*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (TxnId txn : bug.txns) {
      auto it = txn_client_.find(txn);
      if (it == txn_client_.end()) continue;
      // A restored transaction's session died with the previous process;
      // its client id then has no live session and the bug is unroutable.
      auto sit = client_session_.find(it->second);
      if (sit == client_session_.end()) continue;
      if (std::find(targets.begin(), targets.end(), sit->second) ==
          targets.end()) {
        targets.push_back(sit->second);
      }
    }
  }
  if (targets.empty()) {
    if (m_violations_unroutable_ != nullptr) m_violations_unroutable_->Inc();
    return;
  }
  // Frames are encoded lazily per negotiated wire version: v1 sessions get
  // the legacy payload, v2 sessions the structured witness.
  std::string frame_by_version[2];
  const uint64_t now_ns = obs::NowNs();
  for (Session* s : targets) {
    if (s->defunct.load(std::memory_order_relaxed)) {
      if (m_report_send_errors_ != nullptr) m_report_send_errors_->Inc();
      continue;
    }
    const uint32_t v = std::min<uint32_t>(std::max<uint32_t>(s->version, 1), 2);
    std::string& frame = frame_by_version[v - 1];
    if (frame.empty()) {
      frame = EncodeFrame(FrameType::kViolation, EncodeViolation(bug, v));
    }
    SendToSession(*s, frame);
    if (s->defunct.load(std::memory_order_relaxed)) {
      if (m_report_send_errors_ != nullptr) m_report_send_errors_->Inc();
      continue;
    }
    s->violations_sent.fetch_add(1, std::memory_order_relaxed);
    if (m_violations_sent_ != nullptr) m_violations_sent_->Inc();
    if (m_report_latency_ != nullptr) {
      uint64_t arrival = s->last_frame_ns.load(std::memory_order_relaxed);
      if (arrival != 0 && now_ns > arrival) {
        m_report_latency_->Record(now_ns - arrival);
        // Final pipeline stage: server read of the (latest) offending frame
        // to the violation report leaving for the client.
        if (m_stage_report_ != nullptr) {
          m_stage_report_->Record(now_ns - arrival);
        }
      }
    }
  }
}

void VerifierServer::DiagnoseLoop() {
  obs::Watchdog::Slot* wd = opts_.watchdog != nullptr
                                ? opts_.watchdog->Register("diagnose.worker")
                                : nullptr;
  while (true) {
    BugDescriptor target;
    std::vector<Trace> snapshot;
    {
      std::unique_lock<std::mutex> lock(diag_mu_);
      // Unbounded idle wait between violations — suspend, don't stall.
      if (wd != nullptr) wd->Suspend();
      diag_cv_.wait(lock, [this] { return diag_stop_ || !diag_queue_.empty(); });
      if (wd != nullptr) wd->Resume();
      if (diag_queue_.empty()) break;  // stop requested, queue drained
      target = std::move(diag_queue_.front());
      diag_queue_.pop_front();
      snapshot = recorded_;  // reproducing superset of the violation
    }
    if (opts_.events != nullptr) {
      opts_.events->Recordf(
          obs::EventSeverity::kInfo, "diagnose",
          "diagnosis started: %s on key %llu (%llu traces)",
          BugTypeName(target.type),
          static_cast<unsigned long long>(target.key),
          static_cast<unsigned long long>(snapshot.size()));
    }
    diagnose::MinimizeOptions mo;
    mo.max_oracle_runs = opts_.diagnose_max_oracle_runs;
    mo.metrics = metrics_;
    // A single minimization legitimately runs minutes on big histories; its
    // oracle re-runs never heartbeat, so tell the watchdog we're busy, not
    // wedged.
    if (wd != nullptr) wd->Suspend();
    auto d = diagnose::Diagnose(config_, std::move(snapshot), target, mo);
    if (wd != nullptr) wd->Resume();
    if (opts_.events != nullptr) {
      opts_.events->Recordf(obs::EventSeverity::kInfo, "diagnose",
                            "diagnosis %s for %s on key %llu",
                            d.ok() ? "done" : "inconclusive",
                            BugTypeName(target.type),
                            static_cast<unsigned long long>(target.key));
    }
    if (!d.ok()) continue;  // e.g. a cross-stream race the oracle can't see
    if (!opts_.diagnose_out_dir.empty()) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(diag_mu_);
        index = diagnoses_.size();
      }
      diagnose::WriteDiagnosisArtifacts(
          *d, opts_.diagnose_out_dir + "/diag_" + std::to_string(index));
    }
    std::lock_guard<std::mutex> lock(diag_mu_);
    diagnoses_.push_back(std::move(*d));
  }
  if (opts_.watchdog != nullptr) opts_.watchdog->Retire(wd);
}

void VerifierServer::StopDiagnoseWorker() {
  if (!diag_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(diag_mu_);
    diag_stop_ = true;
  }
  diag_cv_.notify_all();
  diag_thread_.join();
}

void VerifierServer::WalAddClient(ClientId client) {
  if (!durable_) return;
  std::lock_guard<std::mutex> lock(durable_mu_);
  Status s = wal_.AppendAddClient(client);
  if (s.ok()) s = wal_.Sync();
  if (!s.ok()) {
    if (m_wal_errors_ != nullptr) m_wal_errors_->Inc();
    if (opts_.events != nullptr) {
      opts_.events->Recordf(obs::EventSeverity::kError, "durable",
                            "WAL client registration failed: %s",
                            s.message().c_str());
    }
    return;
  }
  wal_next_seq_.store(wal_.next_seq(), std::memory_order_relaxed);
  wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
  if (m_wal_appends_ != nullptr) m_wal_appends_->Inc();
}

Status VerifierServer::RecoverState(const OnlineVerifier::Options& vo) {
  const uint64_t fingerprint = serde::ConfigFingerprint(config_);
  uint64_t cut = 0;
  uint32_t saved_slot = 0;
  uint64_t saved_traces = 0;
  std::unordered_map<TxnId, ClientId> saved_routes;
  bool restored = false;

  // Newest checkpoint first, older ones as fallback. Each attempt gets a
  // fresh verifier: a LoadState that fails midway leaves its target
  // half-overwritten, never to be reused.
  auto candidates = ckpts_.List();
  for (auto it = candidates.rbegin(); it != candidates.rend() && !restored;
       ++it) {
    auto loaded = durable::CheckpointStore::ReadCheckpoint(it->second);
    if (!loaded.ok()) {
      if (opts_.events != nullptr) {
        opts_.events->Recordf(obs::EventSeverity::kWarn, "durable",
                              "skipping checkpoint: %s",
                              loaded.status().message().c_str());
      }
      continue;
    }
    // Config and shard-count mismatches are operator errors, not corruption:
    // falling back to an older file would just fail the same way, and
    // silently verifying under a different config would change verdicts.
    if (loaded->meta.config_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint " + loaded->path +
          " was written under a different verifier configuration");
    }
    if (loaded->meta.n_shards != opts_.n_shards) {
      return Status::FailedPrecondition(
          "checkpoint " + loaded->path + " was written with --shards=" +
          std::to_string(loaded->meta.n_shards) + ", server is running " +
          std::to_string(opts_.n_shards));
    }
    auto fresh = std::make_unique<OnlineVerifier>(1, config_, vo);
    StateReader r(loaded->payload);
    Status s;
    uint32_t slot = 0;
    uint64_t traces = 0;
    uint32_t n_routes = 0;
    std::unordered_map<TxnId, ClientId> routes;
    if ((s = r.GetU32(slot)).ok() && (s = r.GetU64(traces)).ok() &&
        (s = r.GetU32(n_routes)).ok()) {
      if (!r.CountFits(n_routes, 12)) {
        s = Status::InvalidArgument("server state: absurd route count");
      }
      routes.reserve(n_routes);
      for (uint32_t i = 0; i < n_routes && s.ok(); ++i) {
        uint64_t txn = 0;
        uint32_t cl = 0;
        if ((s = r.GetU64(txn)).ok() && (s = r.GetU32(cl)).ok()) {
          routes.emplace(txn, cl);
        }
      }
    }
    if (s.ok()) s = fresh->LoadState(r);
    if (!s.ok()) {
      if (opts_.events != nullptr) {
        opts_.events->Recordf(obs::EventSeverity::kWarn, "durable",
                              "checkpoint %s unusable: %s",
                              loaded->path.c_str(), s.message().c_str());
      }
      continue;  // the half-loaded verifier is discarded with `fresh`
    }
    online_ = std::move(fresh);
    cut = loaded->meta.cut;
    saved_slot = slot;
    saved_traces = traces;
    saved_routes = std::move(routes);
    restored = true;
  }
  if (!restored) {
    if (!candidates.empty() && opts_.events != nullptr) {
      // Every checkpoint was unusable; the WAL-start guard below decides
      // whether the surviving log still covers the whole history.
      opts_.events->Recordf(obs::EventSeverity::kWarn, "durable",
                            "no usable checkpoint; replaying the full WAL");
    }
    online_ = std::make_unique<OnlineVerifier>(1, config_, vo);
    cut = 0;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_client_ = std::move(saved_routes);
  }

  // Replay the log past the cut into the restored verifier. Registrations
  // below the checkpoint's client count are already part of the restored
  // state (the WAL write happens outside mu_, so an id can legitimately be
  // in both); fresh ones must come back with exactly the logged id.
  const uint32_t base = online_->client_count();
  uint64_t replayed_traces = 0;
  durable::WalReplayStats stats;
  Status s = durable::WalReplay(
      opts_.state_dir, cut,
      [&](const durable::WalEntry& entry) -> Status {
        if (entry.kind == durable::WalEntry::Kind::kAddClient) {
          if (entry.client < base) return Status::Ok();
          auto added = online_->AddClient();
          if (!added.ok()) return added.status();
          if (added->id != entry.client) {
            return Status::Internal(
                "WAL replay client id mismatch: log says " +
                std::to_string(entry.client) + ", verifier assigned " +
                std::to_string(added->id));
          }
          return Status::Ok();
        }
        online_->Push(entry.trace.client, entry.trace);
        ++replayed_traces;
        return Status::Ok();
      },
      &stats);
  if (!s.ok()) return s;

  recovery_.resumed = restored || stats.segments_read > 0;
  recovery_.checkpoint_cut = cut;
  recovery_.entries_replayed = stats.entries_replayed;
  recovery_.entries_skipped = stats.entries_skipped;
  recovery_.torn_bytes = stats.torn_bytes;

  if (recovery_.resumed) {
    // Every restored client belonged to a session that died with the old
    // process; close them all (the gate included) so the run can finish.
    // New sessions register fresh streams — the verifier stays dynamic.
    const uint32_t total = online_->client_count();
    for (ClientId c = 0; c < total; ++c) online_->Close(c);
    gate_closed_ = true;
    next_stream_slot_ = std::max(total > 0 ? total - 1 : 0, saved_slot);
    traces_received_.store(saved_traces + replayed_traces,
                           std::memory_order_relaxed);
    // Re-seed backpressure accounting: in-flight = pushed - verified must
    // equal what the pipeline actually buffers after the replay.
    pushed_bytes_.store(
        online_->verified_bytes() + online_->ApproxBufferedBytes(),
        std::memory_order_relaxed);
  } else if (opts_.expected_sessions == 0) {
    online_->Close(gate_client_);
    gate_closed_ = true;
  }

  durable::WalWriter::Options wo;
  wo.segment_bytes = opts_.wal_segment_bytes;
  s = wal_.Open(opts_.state_dir, stats.next_seq, wo);
  if (!s.ok()) return s;
  last_ckpt_cut_ = cut;
  traces_at_last_ckpt_.store(traces_received_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  wal_next_seq_.store(wal_.next_seq(), std::memory_order_relaxed);
  wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
  if (m_wal_segments_g_ != nullptr) {
    m_wal_segments_g_->Set(static_cast<int64_t>(wal_.segment_count()));
  }
  if (opts_.events != nullptr && recovery_.resumed) {
    opts_.events->Recordf(
        obs::EventSeverity::kInfo, "durable",
        "resumed from %s cut %llu: %llu WAL entries replayed, %llu skipped, "
        "%llu torn bytes truncated",
        restored ? "checkpoint" : "empty state (WAL only),",
        static_cast<unsigned long long>(cut),
        static_cast<unsigned long long>(stats.entries_replayed),
        static_cast<unsigned long long>(stats.entries_skipped),
        static_cast<unsigned long long>(stats.torn_bytes));
  }
  return Status::Ok();
}

Status VerifierServer::TriggerCheckpoint() {
  if (!durable_) {
    return Status::FailedPrecondition("server has no state dir");
  }
  return DoCheckpoint();
}

Status VerifierServer::DoCheckpoint() {
  std::lock_guard<std::mutex> durable_lock(durable_mu_);
  const uint64_t start_ns = obs::NowNs();
  // Rotate first: the cut then sits on a segment boundary, so every fully
  // pre-cut segment is garbage-collectable the moment the checkpoint lands.
  Status s = wal_.Rotate();
  if (!s.ok()) {
    if (m_checkpoint_errors_ != nullptr) m_checkpoint_errors_->Inc();
    return s;
  }
  const uint64_t cut = wal_.next_seq();
  if (checkpoints_written_.load(std::memory_order_relaxed) > 0 &&
      cut == last_ckpt_cut_) {
    return Status::Ok();  // nothing accepted since the last checkpoint
  }
  std::string payload;
  StateWriter w(payload);
  uint64_t traces_at_cut = 0;
  {
    // Server section first. durable_mu_ -> mu_ is the sanctioned order;
    // released before SaveState, which must be free to wait on a dispatcher
    // that may itself be blocked on mu_ inside OnBug.
    std::lock_guard<std::mutex> lock(mu_);
    traces_at_cut = traces_received_.load(std::memory_order_relaxed);
    w.PutU32(next_stream_slot_);
    w.PutU64(traces_at_cut);
    w.PutU32(static_cast<uint32_t>(txn_client_.size()));
    for (const auto& [txn, cl] : txn_client_) {
      w.PutU64(txn);
      w.PutU32(cl);
    }
  }
  s = online_->SaveState(w);
  if (!s.ok()) {
    if (m_checkpoint_errors_ != nullptr) m_checkpoint_errors_->Inc();
    return s;
  }
  durable::CheckpointStore::Meta meta;
  meta.cut = cut;
  meta.config_fingerprint = serde::ConfigFingerprint(config_);
  meta.n_shards = opts_.n_shards;
  s = ckpts_.Write(meta, payload);
  if (!s.ok()) {
    if (m_checkpoint_errors_ != nullptr) m_checkpoint_errors_->Inc();
    if (opts_.events != nullptr) {
      opts_.events->Recordf(obs::EventSeverity::kError, "durable",
                            "checkpoint write failed: %s",
                            s.message().c_str());
    }
    return s;
  }
  // GC below the *previous* cut, not this one: the store retains two
  // checkpoints, and falling back to the older needs the WAL from its cut
  // forward. Segments below the previous cut predate every retained
  // checkpoint and are truly dead.
  wal_.RemoveSegmentsBelow(last_ckpt_cut_);
  last_ckpt_cut_ = cut;
  last_ckpt_ns_.store(obs::NowNs(), std::memory_order_relaxed);
  traces_at_last_ckpt_.store(traces_at_cut, std::memory_order_relaxed);
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
  wal_next_seq_.store(wal_.next_seq(), std::memory_order_relaxed);
  if (m_checkpoints_ != nullptr) m_checkpoints_->Inc();
  if (m_wal_segments_g_ != nullptr) {
    m_wal_segments_g_->Set(static_cast<int64_t>(wal_.segment_count()));
  }
  if (m_ckpt_ns_ != nullptr) m_ckpt_ns_->Record(obs::NowNs() - start_ns);
  if (opts_.events != nullptr) {
    opts_.events->Recordf(
        obs::EventSeverity::kInfo, "durable",
        "checkpoint at cut %llu (%llu bytes, %llu ms)",
        static_cast<unsigned long long>(cut),
        static_cast<unsigned long long>(payload.size()),
        static_cast<unsigned long long>((obs::NowNs() - start_ns) /
                                        1000000ull));
  }
  return Status::Ok();
}

void VerifierServer::CheckpointLoop() {
  obs::Watchdog::Slot* wd =
      opts_.watchdog != nullptr ? opts_.watchdog->Register("durable.checkpointer")
                                : nullptr;
  auto owed = [this] {
    return opts_.checkpoint_every_traces > 0 &&
           traces_received_.load(std::memory_order_relaxed) -
                   traces_at_last_ckpt_.load(std::memory_order_relaxed) >=
               opts_.checkpoint_every_traces;
  };
  std::unique_lock<std::mutex> lock(ckpt_thread_mu_);
  while (true) {
    if (wd != nullptr) wd->Suspend();
    ckpt_thread_cv_.wait_for(
        lock, std::chrono::milliseconds(opts_.checkpoint_interval_ms),
        [&] { return ckpt_stop_ || owed(); });
    if (wd != nullptr) wd->Resume();
    // A trace-count checkpoint already owed when the drain stops us is
    // still taken (once): every crossing of checkpoint_every_traces gets
    // its checkpoint, however soon the drain follows it.
    const bool stop = ckpt_stop_;
    if (stop && !owed()) break;
    lock.unlock();
    Status s = DoCheckpoint();
    // FailedPrecondition means the verifier is already draining — the final
    // report supersedes any further checkpoint; everything else is logged
    // inside DoCheckpoint and retried next tick.
    (void)s;
    lock.lock();
    if (stop) break;
  }
  if (opts_.watchdog != nullptr) opts_.watchdog->Retire(wd);
}

void VerifierServer::StopCheckpointWorker() {
  if (!ckpt_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(ckpt_thread_mu_);
    ckpt_stop_ = true;
  }
  ckpt_thread_cv_.notify_all();
  ckpt_thread_.join();
}

void VerifierServer::Shutdown() {
  {
    // Wake() under mu_: WaitReport closes the listener under mu_ too, so a
    // late Shutdown never shuts down a descriptor number already reused.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_relaxed);
    listener_.Wake();
  }
  if (online_ != nullptr) online_->NotifyProgressWaiters();
  drain_cv_.notify_all();
}

VerifierServer::StatusSnapshot VerifierServer::GetStatus() const {
  StatusSnapshot s;
  s.traces_received = traces_received_.load(std::memory_order_relaxed);
  s.sessions_completed = sessions_completed_.load(std::memory_order_relaxed);
  s.draining = stopping_.load(std::memory_order_relaxed);
  const uint64_t pushed = pushed_bytes_.load(std::memory_order_relaxed);
  const uint64_t verified =
      online_ != nullptr ? online_->verified_bytes() : pushed;
  s.inflight_bytes = pushed > verified ? pushed - verified : 0;
  s.durable = durable_;
  if (durable_) {
    s.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
    const uint64_t last = last_ckpt_ns_.load(std::memory_order_relaxed);
    s.checkpoint_age_ms = last != 0 ? (obs::NowNs() - last) / 1000000ull : 0;
    s.wal_segments = wal_segments_.load(std::memory_order_relaxed);
    s.wal_next_seq = wal_next_seq_.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.sessions_handshaken = sessions_handshaken_;
    for (const auto& sess : sessions_) {
      if (!sess->counted_complete.load(std::memory_order_relaxed)) {
        ++s.sessions_active;
        if (sess->n_streams != 0) {
          s.session_ils.emplace_back(sess->id, sess->stream_ils);
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(diag_mu_);
    s.diagnoses_done = static_cast<uint32_t>(diagnoses_.size());
    s.diagnoses_queued = static_cast<uint32_t>(diag_queue_.size());
  }
  return s;
}

const VerifyReport& VerifierServer::WaitReport() {
  if (online_ == nullptr) return report_;  // Start() never ran
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (drained_) return report_;
    drain_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_relaxed) ||
             (opts_.expected_sessions > 0 &&
              sessions_completed_.load(std::memory_order_relaxed) >=
                  opts_.expected_sessions);
    });
    if (draining_ || drained_) {
      // Another caller won the race past the wait and owns the teardown
      // below; it joins threads, so a second runner would double-join.
      drain_cv_.wait(lock, [this] { return drained_; });
      return report_;
    }
    draining_ = true;
    stopping_.store(true, std::memory_order_relaxed);
    listener_.Wake();
  }
  // Backpressured readers re-check stopping_ at once.
  online_->NotifyProgressWaiters();
  // Stop accepting and collect the session set (stable: entries are never
  // erased, and none can appear once the acceptor is joined). Wake() made
  // its blocked accept(2) return; the fd is closed only after the join, so
  // Close never races an Accept on the same descriptor.
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    listener_.Close();
  }
  // Stop checkpointing before the final drain: from here on the verifier
  // heads for its report, which supersedes any checkpoint.
  StopCheckpointWorker();
  std::vector<Session*> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) sessions.push_back(s.get());
  }
  // Sessions still owing stream data (shutdown before they finished, or
  // surplus beyond expected_sessions) would stall the drain forever: force
  // their readers out now; FinishSession closes their streams.
  for (Session* s : sessions) {
    if (!s->counted_complete.load(std::memory_order_relaxed)) {
      s->sock.ShutdownBoth();
      if (s->reader.joinable()) s->reader.join();
    }
  }
  online_->SealClients();
  online_->Close(gate_client_);  // idempotent
  report_ = online_->WaitReport();  // streams remaining violations via OnBug
  // Completed sessions kept their connection for the report; hand each its
  // BYE and release them.
  const uint64_t verified = online_->verified_count();
  for (Session* s : sessions) {
    ByeMsg bye;
    bye.traces_verified = verified;
    bye.violations_sent = s->violations_sent.load(std::memory_order_relaxed);
    SendToSession(*s, EncodeFrame(FrameType::kBye, EncodeBye(bye)));
    s->sock.ShutdownBoth();
  }
  for (Session* s : sessions) {
    if (s->reader.joinable()) s->reader.join();
  }
  // Every violation has been routed through OnBug by now; let the worker
  // drain its queue so diagnoses() is complete and stable.
  StopDiagnoseWorker();
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained_ = true;
  }
  drain_cv_.notify_all();
  return report_;
}

}  // namespace net
}  // namespace leopard

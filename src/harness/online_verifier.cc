#include "harness/online_verifier.h"

#include <cassert>
#include <chrono>
#include <utility>

#include "obs/watchdog.h"

namespace leopard {

namespace {

ShardedLeopard::Options EngineOptions(const OnlineVerifier::Options& options) {
  ShardedLeopard::Options eo;
  eo.n_shards = options.n_shards;
  eo.n_workers = options.n_workers;
  eo.metrics = options.obs.metrics;
  eo.span_sample_every = options.obs.span_sample_every;
  eo.events = options.obs.events;
  eo.watchdog = options.obs.watchdog;
  return eo;
}

}  // namespace

OnlineVerifier::OnlineVerifier(uint32_t n_clients,
                               const VerifierConfig& config)
    : OnlineVerifier(n_clients, config, Options()) {}

OnlineVerifier::OnlineVerifier(uint32_t n_clients,
                               const VerifierConfig& config,
                               const ObsOptions& obs_options)
    : OnlineVerifier(n_clients, config, [&obs_options] {
        Options o;
        o.obs = obs_options;
        return o;
      }()) {}

OnlineVerifier::OnlineVerifier(uint32_t n_clients,
                               const VerifierConfig& config,
                               const Options& options)
    : pipeline_(n_clients),
      engine_(config, EngineOptions(options)),
      n_clients_(n_clients),
      open_clients_(n_clients),
      client_closed_(n_clients, 0),
      sealed_(!options.dynamic_clients),
      on_bug_(options.on_bug),
      metrics_(options.obs.metrics),
      watchdog_(options.obs.watchdog),
      worker_([this] { Loop(); }) {
  if (metrics_ != nullptr) {
    {
      // The worker thread is already running; attach under the lock so it
      // never observes half-initialized metric handles. (The engine's own
      // metrics were attached in its constructor, before the worker
      // existed.)
      std::lock_guard<std::mutex> lock(mu_);
      pipeline_.AttachMetrics(metrics_, options.obs.span_sample_every);
    }
    if (options.obs.progress_interval_ms > 0) {
      obs::ProgressReporter::Options po;
      po.interval_ms = options.obs.progress_interval_ms;
      po.print = options.obs.print_progress;
      po.registry = metrics_;
      reporter_ = std::make_unique<obs::ProgressReporter>(
          po, [this] { return SampleProgress(); });
    }
  }
}

OnlineVerifier::~OnlineVerifier() {
  // Force-close any stream the caller forgot, so the worker can drain and
  // terminate (Close is idempotent per client; SealClients stops a dynamic
  // run from waiting for sessions that will never come).
  SealClients();
  uint32_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = n_clients_;
  }
  for (ClientId c = 0; c < n; ++c) Close(c);
  WaitFinished();
  worker_.join();
  // Stop after the worker: the final reporter sample then reflects the
  // fully-drained state.
  if (reporter_ != nullptr) reporter_->Stop();
}

obs::ProgressSnapshot OnlineVerifier::SampleProgress() const {
  // Everything here is an atomic read: verified_ directly, the rest via the
  // registry counters the verifier thread mirrors its stats into. The
  // verifier thread is never blocked by a progress tick.
  obs::ProgressSnapshot s = obs::SnapshotFromRegistry(*metrics_);
  // The stats mirror refreshes every few traces; our own atomic is exact.
  s.verified = verified_.load(std::memory_order_relaxed);
  return s;
}

void OnlineVerifier::Push(ClientId client, Trace trace) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.Push(client, std::move(trace));
  }
  producer_cv_.notify_one();
}

void OnlineVerifier::Close(ClientId client) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (client >= n_clients_ || client_closed_[client]) return;
    client_closed_[client] = 1;
    pipeline_.Close(client);
    --open_clients_;
  }
  producer_cv_.notify_one();
}

StatusOr<OnlineVerifier::AddedClient> OnlineVerifier::AddClient() {
  AddedClient added;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_) {
      return Status::FailedPrecondition(
          "AddClient() requires Options::dynamic_clients and must precede "
          "SealClients()");
    }
    added.id = pipeline_.AddClient();
    added.floor = pipeline_.dispatch_floor();
    client_closed_.push_back(0);
    n_clients_ = static_cast<uint32_t>(client_closed_.size());
    ++open_clients_;
  }
  producer_cv_.notify_one();
  return added;
}

StatusOr<OnlineVerifier::AddedClient> OnlineVerifier::ReopenClient(
    ClientId client) {
  AddedClient reopened;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_) {
      return Status::FailedPrecondition(
          "ReopenClient() requires Options::dynamic_clients and must precede "
          "SealClients()");
    }
    if (client >= n_clients_) {
      return Status::InvalidArgument("ReopenClient: unknown client");
    }
    if (!client_closed_[client]) {
      return Status::FailedPrecondition("ReopenClient: client still open");
    }
    client_closed_[client] = 0;
    reopened.id = client;
    reopened.floor = pipeline_.Reopen(client);
    ++open_clients_;
  }
  producer_cv_.notify_one();
  return reopened;
}

void OnlineVerifier::SealClients() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed_ = true;
  }
  producer_cv_.notify_one();
}

void OnlineVerifier::WaitFinished() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return finished_; });
}

const Leopard& OnlineVerifier::Wait() {
  assert(engine_.n_shards() == 1 &&
         "Wait() returns the single-threaded verifier; sharded runs must "
         "use WaitReport()");
  WaitFinished();
  return engine_.single();
}

const VerifyReport& OnlineVerifier::WaitReport() {
  WaitFinished();
  return engine_.report();
}

void OnlineVerifier::Loop() {
  obs::Watchdog::Slot* wd =
      watchdog_ != nullptr ? watchdog_->Register("dispatcher") : nullptr;
  std::vector<Trace> batch;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (wd != nullptr) wd->Beat();
    if (ckpt_requested_) {
      // Checkpoint safepoint: every trace dispatched so far is verified and
      // the batch is empty (this is the loop top) — park here until the
      // checkpointer serializes and releases us. Idleness, not a wedge.
      ckpt_parked_ = true;
      ckpt_cv_.notify_all();
      if (wd != nullptr) wd->Suspend();
      producer_cv_.wait(lock, [this] { return !ckpt_requested_; });
      if (wd != nullptr) wd->Resume();
      ckpt_parked_ = false;
    }
    // Drain everything currently dispatchable into a local batch, then
    // release the lock before verifying: producers only ever contend with
    // the short Dispatch drain, never with Process(). This is the online
    // hot path — holding mu_ across verification would stall every Push()
    // behind whole verification batches.
    while (auto trace = pipeline_.Dispatch()) {
      batch.push_back(std::move(*trace));
    }
    if (!batch.empty()) {
      lock.unlock();
      for (Trace& trace : batch) {
        const uint64_t bytes = trace.ApproxBytes();
        engine_.Process(trace);
        verified_.fetch_add(1, std::memory_order_relaxed);
        verified_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      }
      // Single-shard verification happens inline in Process, so any bug it
      // found is visible now — stream it while the producers still run.
      if (on_bug_ && engine_.n_shards() == 1) {
        DeliverNewBugs(engine_.single().bugs());
      }
      batch.clear();
      lock.lock();
      progress_cv_.notify_all();
      continue;  // input may have arrived while we were verifying
    }
    if (sealed_ && open_clients_ == 0 && pipeline_.Exhausted()) break;
    // The wait is unbounded by design (producers may legitimately pause for
    // hours); tell the watchdog this is idleness, not a wedge.
    if (wd != nullptr) wd->Suspend();
    producer_cv_.wait(lock);
    if (wd != nullptr) wd->Resume();
  }
  // Finish() may join shard worker threads — never run it under mu_. The
  // join can outlast the stall threshold on a deep final drain; the shard
  // workers keep their own heartbeats, so suspend the dispatcher's.
  // draining_ tells a checkpointer racing this exit that its safepoint will
  // never be reached — SaveState fails instead of hanging.
  draining_ = true;
  ckpt_cv_.notify_all();
  if (wd != nullptr) wd->Suspend();
  lock.unlock();
  engine_.Finish();
  // Sharded workers and the certifier only surface their bugs in the
  // aggregated report; deliver the remainder exactly once, before anyone
  // blocked in WaitReport() wakes up.
  if (on_bug_) DeliverNewBugs(engine_.report().bugs);
  lock.lock();
  finished_ = true;
  if (watchdog_ != nullptr) watchdog_->Retire(wd);
  done_cv_.notify_all();
}

void OnlineVerifier::DeliverNewBugs(const std::vector<BugDescriptor>& bugs) {
  while (bugs_delivered_ < bugs.size()) on_bug_(bugs[bugs_delivered_++]);
}

uint64_t OnlineVerifier::WaitForProgress(uint64_t seen, uint64_t timeout_ms,
                                         const std::atomic<bool>& cancel) {
  // The predicate runs under mu_, which the dispatcher holds when it
  // notifies after publishing verified_bytes_: no wakeup is lost.
  std::unique_lock<std::mutex> lock(mu_);
  progress_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return verified_bytes_.load(std::memory_order_relaxed) != seen ||
           cancel.load(std::memory_order_relaxed);
  });
  return verified_bytes_.load(std::memory_order_relaxed);
}

void OnlineVerifier::NotifyProgressWaiters() {
  std::lock_guard<std::mutex> lock(mu_);
  progress_cv_.notify_all();
}

uint64_t OnlineVerifier::ApproxBufferedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pipeline_.buffered_bytes();
}

uint32_t OnlineVerifier::client_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return n_clients_;
}

Status OnlineVerifier::SaveState(StateWriter& w) {
  std::unique_lock<std::mutex> lock(mu_);
  if (finished_ || draining_) {
    return Status::FailedPrecondition(
        "verifier already draining; the final report supersedes checkpoints");
  }
  ckpt_requested_ = true;
  producer_cv_.notify_all();
  ckpt_cv_.wait(lock,
                [this] { return ckpt_parked_ || draining_ || finished_; });
  if (!ckpt_parked_) {
    // The dispatcher slipped into its final drain before parking.
    ckpt_requested_ = false;
    return Status::FailedPrecondition(
        "verifier drained before reaching the checkpoint safepoint");
  }
  // Safepoint reached: the dispatcher is parked with an empty batch, so the
  // engine has applied every dispatched trace. Quiesce flushes the sharded
  // engine's queues; producers block on mu_ for the duration.
  engine_.Quiesce();
  w.PutU32(n_clients_);
  for (uint8_t closed : client_closed_) w.PutBool(closed != 0);
  w.PutBool(sealed_);
  w.PutU64(verified_.load(std::memory_order_relaxed));
  w.PutU64(verified_bytes_.load(std::memory_order_relaxed));
  w.PutU64(static_cast<uint64_t>(bugs_delivered_));
  pipeline_.SaveState(w);
  engine_.SaveState(w);
  engine_.ResumeFromQuiesce();
  ckpt_requested_ = false;
  lock.unlock();
  producer_cv_.notify_all();
  return Status::Ok();
}

Status OnlineVerifier::LoadState(StateReader& r) {
  std::unique_lock<std::mutex> lock(mu_);
  if (finished_ || draining_) {
    return Status::FailedPrecondition("verifier already draining");
  }
  ckpt_requested_ = true;
  producer_cv_.notify_all();
  ckpt_cv_.wait(lock,
                [this] { return ckpt_parked_ || draining_ || finished_; });
  if (!ckpt_parked_) {
    ckpt_requested_ = false;
    return Status::FailedPrecondition(
        "verifier drained before state could be restored");
  }
  engine_.Quiesce();
  Status s;
  uint32_t n_clients = 0;
  if ((s = r.GetU32(n_clients)).ok()) {
    if (!r.CountFits(n_clients, 1)) {
      s = Status::InvalidArgument("verifier state: absurd client count");
    }
  }
  if (s.ok()) {
    client_closed_.assign(n_clients, 0);
    for (uint32_t i = 0; i < n_clients && s.ok(); ++i) {
      bool closed = false;
      if ((s = r.GetBool(closed)).ok()) client_closed_[i] = closed ? 1 : 0;
    }
  }
  uint64_t verified = 0;
  uint64_t verified_bytes = 0;
  uint64_t delivered = 0;
  if (s.ok()) s = r.GetBool(sealed_);
  if (s.ok()) s = r.GetU64(verified);
  if (s.ok()) s = r.GetU64(verified_bytes);
  if (s.ok()) s = r.GetU64(delivered);
  if (s.ok()) s = pipeline_.LoadState(r);
  if (s.ok()) s = engine_.LoadState(r);
  if (s.ok()) {
    n_clients_ = n_clients;
    verified_.store(verified, std::memory_order_relaxed);
    verified_bytes_.store(verified_bytes, std::memory_order_relaxed);
    bugs_delivered_ = static_cast<size_t>(delivered);
    open_clients_ = 0;
    for (uint8_t closed : client_closed_) {
      if (!closed) ++open_clients_;
    }
  }
  engine_.ResumeFromQuiesce();
  ckpt_requested_ = false;
  lock.unlock();
  producer_cv_.notify_all();
  return s;
}

}  // namespace leopard

#include "verifier/sharded_leopard.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/flat_hash_map.h"
#include "common/spsc_queue.h"
#include "isolation/isolation.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "verifier/dependency_graph.h"
#include "verifier/state_serde.h"

namespace leopard {
namespace sharded_internal {

/// Router → shard. One queue per shard, produced only by the Process()
/// caller, consumed by whichever worker currently holds the shard's drain
/// claim (the claim flag serializes consumers, keeping the queue SPSC).
struct ShardMsg {
  enum class Kind : uint8_t { kTrace, kFinish, kBarrier };
  Kind kind = Kind::kTrace;
  /// Projection of the routed trace onto this shard's keys (terminals are
  /// broadcast whole — they carry no accesses).
  Trace trace;
  /// Router's global dispatch frontier after this trace: the shard advances
  /// to it before processing, so pending reads flush at exactly the point
  /// the single-threaded verifier would flush them.
  Timestamp frontier = 0;
  /// Router's global safe timestamp (Def. 4 over *all* active transactions);
  /// caps the shard's local SafeTs so GC never outruns a transaction that is
  /// active purely on other shards.
  Timestamp safe_bound = 0;
  /// Set on the first message this shard ever sees for trace.txn: the
  /// transaction's true (global) first-operation interval, which snapshot
  /// generation and FUW/SSI concurrency tests depend on.
  bool has_txn_begin = false;
  TimeInterval txn_begin;
  /// Home-shard terminals only: after processing, forward the transaction's
  /// fate to the certifier — FIFO behind every edge this shard deduced for
  /// it, so the certifier's commit gating sees a consistent prefix.
  bool emit_terminal = false;
  TimeInterval txn_first_op;
};

/// Shard worker → certifier. One queue per shard, produced only by the
/// shard thread (edge sink + terminal/safe-ts forwarding), consumed only by
/// the certifier thread.
struct EdgeMsg {
  enum class Kind : uint8_t { kEdge, kCommit, kAbort, kSafeTs, kDone,
                              kBarrier };
  Kind kind = Kind::kEdge;
  TxnId from = 0;  ///< kEdge: source; kCommit/kAbort: the transaction
  TxnId to = 0;
  DepType type = DepType::kWw;
  TimeInterval first_op;  ///< kCommit: graph NodeInfo
  TimeInterval end;       ///< kCommit: graph NodeInfo
  Timestamp ts = 0;       ///< kSafeTs
  /// kCommit: the terminal trace's runtime ingest stamp (Trace::ingest_ns),
  /// carried through so the certifier can attribute read→certify latency.
  uint64_t ingest_ns = 0;
  /// kCommit: the transaction's declared isolation level (weakest tag the
  /// router saw across its traces). Weak commits are gated out of the
  /// certifier's graph — see Certifier::OnCommit.
  IsolationLevel il = IsolationLevel::kSerializable;
};

struct Shard {
  std::unique_ptr<Leopard> leopard;
  SpscQueue<ShardMsg> in;
  SpscQueue<EdgeMsg> edges;
  /// Drain claim: workers race to exchange() it before touching the shard.
  /// The acquire on a successful claim pairs with the release on the
  /// previous claimant's un-claim, publishing the shard's Leopard state and
  /// both queues' cached consumer/producer cursors between (possibly
  /// different) worker threads — each queue stays effectively SPSC.
  std::atomic<bool> claim{false};
  /// Set (release) after kFinish runs the shard's Leopard::Finish; workers
  /// exit once every shard is finished.
  std::atomic<bool> finished{false};
  uint64_t msgs_since_safe_ts = 0;

  Shard(const VerifierConfig& config, size_t queue_capacity)
      : leopard(std::make_unique<Leopard>(config)),
        in(queue_capacity),
        edges(queue_capacity) {}
};

}  // namespace sharded_internal

using sharded_internal::EdgeMsg;
using sharded_internal::Shard;
using sharded_internal::ShardMsg;

namespace {

constexpr size_t kMaxCertifierBugs = 10000;
constexpr uint64_t kRouterSafeEvery = 64;   ///< traces between safe recomputes
constexpr uint64_t kGaugeSyncEvery = 64;    ///< router gauge refresh cadence
constexpr int kDrainBudget = 256;   ///< shard messages per worker claim

void AccumulateStats(VerifierStats& into, const VerifierStats& from) {
  into.traces_processed += from.traces_processed;
  into.reads_verified += from.reads_verified;
  into.versions_tracked += from.versions_tracked;
  into.out_of_order_traces += from.out_of_order_traces;
  into.deps_total += from.deps_total;
  into.deps_deduced += from.deps_deduced;
  into.overlapped_ww += from.overlapped_ww;
  into.overlapped_wr += from.overlapped_wr;
  into.overlapped_rw += from.overlapped_rw;
  into.deduced_overlapped_ww += from.deduced_overlapped_ww;
  into.deduced_overlapped_wr += from.deduced_overlapped_wr;
  into.deduced_overlapped_rw += from.deduced_overlapped_rw;
  into.uncertain_ww += from.uncertain_ww;
  into.uncertain_wr += from.uncertain_wr;
  into.cr_violations += from.cr_violations;
  into.me_violations += from.me_violations;
  into.fuw_violations += from.fuw_violations;
  into.sc_violations += from.sc_violations;
  into.gc_sweeps += from.gc_sweeps;
  into.pruned_versions += from.pruned_versions;
  into.pruned_locks += from.pruned_locks;
  into.pruned_txns += from.pruned_txns;
  into.weak_il_traces += from.weak_il_traces;
  into.me_suppressed_weak += from.me_suppressed_weak;
  into.fuw_suppressed_weak += from.fuw_suppressed_weak;
  into.sc_nodes_skipped_weak += from.sc_nodes_skipped_weak;
}

}  // namespace

struct ShardedLeopard::Impl {
  /// Global dependency graph + commit/abort gating, owned by the certifier
  /// thread while it runs and read by Finish() after the join. Mirrors the
  /// gating of Leopard::Deduce/EmitEdge: an edge applies only once both
  /// endpoints committed; edges touching aborted transactions drop; edges
  /// arriving before an endpoint's commit park on the missing endpoint.
  struct Certifier {
    explicit Certifier(const VerifierConfig& config)
        : config(config),
          graph(config.certifier, config.check_real_time_order) {}

    VerifierConfig config;
    DependencyGraph graph;
    /// Every transaction ever committed, *including* ones PruneGarbage has
    /// already removed from the graph: an edge whose missing endpoint is
    /// here is late against a pruned node and drops (Theorem 5 — a garbage
    /// transaction cannot join any future cycle), while a genuinely unknown
    /// endpoint parks. Neither this set nor `aborted` is pruned — a
    /// documented memory-for-simplicity tradeoff (8–16 bytes per txn).
    std::unordered_set<TxnId> committed;
    std::unordered_set<TxnId> aborted;
    std::unordered_map<TxnId, std::vector<EdgeMsg>> parked;
    std::vector<Timestamp> shard_safe;
    uint64_t sc_violations = 0;
    uint64_t pruned_txns = 0;
    uint64_t edges_applied = 0;
    uint64_t edges_parked = 0;
    uint64_t edges_dropped = 0;
    uint64_t sc_nodes_skipped_weak = 0;
    std::vector<BugDescriptor> bugs;
    /// Deduced-edge batch (kCycle/kFullDfs only): gating-passed edges
    /// accumulate here and enter the graph through one AddEdgeBatch per
    /// drain sweep, so Pearce–Kelly reorders — or the kFullDfs full search
    /// runs — once per batch instead of once per edge. Flush points are
    /// mandatory before anything that reads or prunes the graph: OnSafeTs
    /// (GC could otherwise prune a node a batched edge references) and the
    /// quiesce barrier (SaveState serializes the graph).
    std::vector<DependencyGraph::BatchEdge> batch;
    std::vector<GraphViolation> flush_scratch;
    bool batch_saw_commit = false;
    TxnId last_commit = 0;
    uint64_t batch_flushes = 0;
    uint64_t batch_edges_total = 0;
    uint64_t batch_edges_max = 0;

    void Report(const GraphViolation& violation, std::string detail_suffix,
                TxnId fallback_txn) {
      ++sc_violations;
      if (bugs.size() >= kMaxCertifierBugs) return;
      BugDescriptor bug;
      bug.type = BugType::kScViolation;
      bug.detail = violation.detail + std::move(detail_suffix);
      bug.edges = violation.edges;
      for (const BugEdge& e : violation.edges) {
        for (TxnId id : {e.from, e.to}) {
          if (std::find(bug.txns.begin(), bug.txns.end(), id) !=
              bug.txns.end()) {
            continue;
          }
          bug.txns.push_back(id);
          BugOp op;
          op.txn = id;
          op.role = "txn-span";
          op.committed = true;
          if (const auto* info = graph.InfoOf(id)) {
            op.interval = TimeInterval{info->first_op.bef, info->end.aft};
          }
          bug.ops.push_back(std::move(op));
        }
      }
      if (bug.txns.empty()) bug.txns.push_back(fallback_txn);
      for (const BugOp& op : bug.ops) {
        if (bug.ts == 0 || op.interval.bef < bug.ts) bug.ts = op.interval.bef;
      }
      bugs.push_back(std::move(bug));
    }

    void TryEdge(const EdgeMsg& e) {
      if (aborted.contains(e.from) || aborted.contains(e.to)) {
        ++edges_dropped;
        return;
      }
      const bool have_from = graph.HasNode(e.from);
      const bool have_to = graph.HasNode(e.to);
      if (have_from && have_to) {
        ++edges_applied;
        if (config.certifier == CertifierMode::kCycle ||
            config.certifier == CertifierMode::kFullDfs) {
          batch.push_back({e.from, e.to, e.type});
        } else {
          // Mirror modes (SSI / commit-order / ts-order) have no reorder
          // cost to amortize — apply immediately, keeping the per-edge
          // detail suffix.
          auto violation = graph.AddEdge(e.from, e.to, e.type);
          if (violation) {
            Report(*violation,
                   " (" + std::string(DepTypeName(e.type)) + " edge)", e.from);
          }
        }
        return;
      }
      const TxnId missing = !have_from ? e.from : e.to;
      if (committed.contains(missing)) {
        // Committed but already pruned as garbage — verdict-neutral drop.
        ++edges_dropped;
        return;
      }
      ++edges_parked;
      parked[missing].push_back(e);
    }

    void OnCommit(const EdgeMsg& e) {
      if (!committed.insert(e.from).second) return;
      if (!isolation::IlRequiresSc(e.il)) {
        // Weak-IL commit: member of `committed` but never a graph node, so
        // its edges (parked here or arriving late) drop on the committed-
        // but-pruned path — mirroring the single-shard status_of fallback.
        ++sc_nodes_skipped_weak;
        auto wit = parked.find(e.from);
        if (wit != parked.end()) {
          std::vector<EdgeMsg> waiting = std::move(wit->second);
          parked.erase(wit);
          for (const EdgeMsg& w : waiting) TryEdge(w);
        }
        return;
      }
      graph.AddNode(e.from, {e.first_op, e.end});
      last_commit = e.from;
      auto it = parked.find(e.from);
      if (it != parked.end()) {
        std::vector<EdgeMsg> waiting = std::move(it->second);
        parked.erase(it);
        // May re-park on the other endpoint — same as Leopard::EmitEdge.
        for (const EdgeMsg& w : waiting) TryEdge(w);
      }
      // kFullDfs certifies at the next Flush(): one full search covers
      // every commit drained in the sweep, same verdicts amortized.
      if (config.certifier == CertifierMode::kFullDfs) batch_saw_commit = true;
    }

    /// Applies the accumulated edge batch (and, for kFullDfs, runs the
    /// one deferred full search covering the commits drained since the
    /// last flush). Must run before OnSafeTs GC and before parking at a
    /// quiesce barrier.
    void Flush() {
      if (!batch.empty()) {
        ++batch_flushes;
        batch_edges_total += batch.size();
        batch_edges_max = std::max<uint64_t>(batch_edges_max, batch.size());
        flush_scratch.clear();
        graph.AddEdgeBatch(batch.data(), batch.size(), flush_scratch);
        for (const GraphViolation& v : flush_scratch) {
          Report(v, "", v.edges.empty() ? last_commit : v.edges.front().from);
        }
        batch.clear();
      }
      if (batch_saw_commit && config.certifier == CertifierMode::kFullDfs) {
        auto violation = graph.FullCycleSearch();
        if (violation) Report(*violation, "", last_commit);
      }
      batch_saw_commit = false;
    }

    void OnAbort(TxnId txn) {
      aborted.insert(txn);
      parked.erase(txn);
    }

    void OnSafeTs(uint32_t shard, Timestamp ts) {
      shard_safe[shard] = std::max(shard_safe[shard], ts);
      if (!config.enable_gc) return;
      Timestamp global = kMaxTimestamp;
      for (Timestamp t : shard_safe) global = std::min(global, t);
      pruned_txns += graph.PruneGarbage(global);
    }
  };

  Impl(const VerifierConfig& config, const Options& options)
      : config(config), opts(options) {
    opts.n_shards = std::clamp<uint32_t>(opts.n_shards, 1, 64);
    if (opts.n_workers == 0) opts.n_workers = opts.n_shards;
    opts.n_workers = std::clamp<uint32_t>(opts.n_workers, 1, 64);
    if (opts.metrics != nullptr) {
      stage_verify = opts.metrics->histogram("stage.read_to_verify_ns");
      gc_safe_gauge = opts.metrics->gauge("verifier.gc.safe_ts");
    }
    if (opts.n_shards == 1) {
      single = std::make_unique<Leopard>(config);
      if (opts.metrics != nullptr) {
        single->AttachMetrics(opts.metrics, opts.span_sample_every);
      }
      return;
    }

    // Shard verifiers run CR/ME/FUW only; all deduced edges are exported to
    // the certifier thread (when SC is checked at all).
    VerifierConfig shard_config = config;
    shard_config.check_sc = false;

    scratch_reads.resize(opts.n_shards);
    scratch_writes.resize(opts.n_shards);
    scratch_absent.resize(opts.n_shards);
    touched_flag.assign(opts.n_shards, 0);
    shard_stall_ns.assign(opts.n_shards, 0);
    shard_stall_event_ns.assign(opts.n_shards, 0);

    if (opts.metrics != nullptr) {
      steal_batches_ctr = opts.metrics->counter("steal.batches");
      steal_msgs_ctr = opts.metrics->counter("steal.msgs");
    }

    shards.reserve(opts.n_shards);
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      shards.push_back(
          std::make_unique<Shard>(shard_config, opts.queue_capacity));
      if (opts.metrics != nullptr) {
        shards[i]->leopard->AttachMetrics(
            opts.metrics, opts.span_sample_every,
            "shard" + std::to_string(i) + ".");
        trace_depth_gauges.push_back(opts.metrics->gauge(
            "sharded.shard" + std::to_string(i) + ".trace_queue_depth"));
        edge_depth_gauges.push_back(opts.metrics->gauge(
            "sharded.shard" + std::to_string(i) + ".edge_queue_depth"));
        stall_counters.push_back(opts.metrics->counter(
            "shard" + std::to_string(i) + ".verifier.stall_ns"));
      }
      if (config.check_sc) {
        SpscQueue<EdgeMsg>* out = &shards[i]->edges;
        shards[i]->leopard->SetEdgeSink(
            [out](TxnId from, TxnId to, DepType type) {
              EdgeMsg e;
              e.kind = EdgeMsg::Kind::kEdge;
              e.from = from;
              e.to = to;
              e.type = type;
              // A failed push means the certifier poisoned the queue on its
              // way out (error shutdown) — the edge is lost, but so is the
              // run; never spin against a dead consumer.
              (void)out->Push(e);
            });
      }
    }

    if (config.check_sc) {
      certifier = std::make_unique<Certifier>(config);
      certifier->shard_safe.assign(opts.n_shards, 0);
      if (opts.metrics != nullptr) {
        stage_certify = opts.metrics->histogram("stage.read_to_certify_ns");
        cert_applied = opts.metrics->counter("sharded.certifier.edges_applied");
        cert_parked = opts.metrics->counter("sharded.certifier.edges_parked");
        cert_dropped = opts.metrics->counter("sharded.certifier.edges_dropped");
        cert_nodes = opts.metrics->gauge("sharded.certifier.graph_nodes");
        cert_batch_count = opts.metrics->counter("certify.batch_count");
        cert_batch_edges = opts.metrics->counter("certify.batch_edges");
        cert_batch_max = opts.metrics->gauge("certify.batch_max_edges");
      }
      certifier_thread = std::thread([this] { CertifierLoop(); });
    }
    workers.reserve(opts.n_workers);
    for (uint32_t w = 0; w < opts.n_workers; ++w) {
      workers.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~Impl() { Finish(); }

  // ---- Router (runs on the Process() caller's thread) ----

  void Route(const Trace& trace) {
    assert(!finished);
    ++router_traces;
    if (trace.ts_bef() < frontier) ++router_out_of_order;
    frontier = std::max(frontier, trace.ts_bef());
    if (++traces_since_safe >= kRouterSafeEvery) {
      traces_since_safe = 0;
      RecomputeRouterSafe();
    }

    if (trace.il != IsolationLevel::kSerializable) ++router_weak_il;
    auto [it, inserted] = txn_routes.try_emplace(trace.txn);
    if (inserted) it->second.first_op = trace.interval;
    TxnRoute& route = it->second;
    if (trace.il < route.il) route.il = trace.il;

    switch (trace.op) {
      case OpType::kRead:
        RouteRead(trace, route);
        break;
      case OpType::kWrite:
        RouteWrite(trace, route);
        break;
      case OpType::kCommit:
      case OpType::kAbort:
        RouteTerminal(trace, route);
        txn_routes.erase(it);
        break;
    }

    if (!trace_depth_gauges.empty() &&
        ++traces_since_gauges >= kGaugeSyncEvery) {
      traces_since_gauges = 0;
      for (uint32_t i = 0; i < opts.n_shards; ++i) {
        trace_depth_gauges[i]->Set(
            static_cast<int64_t>(shards[i]->in.ApproxSize()));
      }
      if (steal_batches_ctr != nullptr) {
        steal_batches_ctr->Store(
            steal_batches.load(std::memory_order_relaxed));
        steal_msgs_ctr->Store(steal_msgs.load(std::memory_order_relaxed));
      }
    }
  }

  struct TxnRoute {
    TimeInterval first_op;
    /// Weakest isolation level seen across the txn's traces: the terminal
    /// broadcast re-stamps with it so every shard (and the certifier)
    /// converges on the same per-txn level whatever projection it saw.
    IsolationLevel il = IsolationLevel::kSerializable;
    uint64_t seen_mask = 0;  ///< shards already introduced to this txn
  };

  void RecomputeRouterSafe() {
    Timestamp safe = frontier;
    for (const auto& [txn, route] : txn_routes) {
      safe = std::min(safe, route.first_op.bef);
    }
    router_safe = safe;
    if (gc_safe_gauge != nullptr) {
      gc_safe_gauge->Set(static_cast<int64_t>(safe));
    }
    if (opts.events != nullptr && safe > last_gc_event_safe) {
      // GC-advance events are throttled to ~1/s wall time: the watermark
      // moves every few hundred traces and would otherwise drown the ring.
      const uint64_t now = obs::NowNs();
      if (now - last_gc_event_ns >= 1000000000ull) {
        last_gc_event_ns = now;
        last_gc_event_safe = safe;
        opts.events->Recordf(obs::EventSeverity::kInfo, "verifier.gc",
                             "safe timestamp advanced to %llu",
                             static_cast<unsigned long long>(safe));
      }
    }
  }

  void Send(uint32_t s, ShardMsg&& msg, TxnRoute& route) {
    msg.frontier = frontier;
    msg.safe_bound = router_safe;
    const uint64_t bit = 1ULL << s;
    if ((route.seen_mask & bit) == 0) {
      route.seen_mask |= bit;
      msg.has_txn_begin = true;
      msg.txn_begin = route.first_op;
    }
    PushToShard(s, std::move(msg));
  }

  void PushToShard(uint32_t s, ShardMsg&& msg) {
    SpscQueue<ShardMsg>& q = shards[s]->in;
    if (q.ApproxSize() >= q.capacity()) {
      // The push below will stall the router until the shard drains. Stall
      // time is accumulated *per shard* and exported as
      // shard<i>.verifier.stall_ns so backpressure is attributable to the
      // shard causing it; journal events throttle per shard at ~1/s (a
      // wedged shard would otherwise fire one per trace).
      if (opts.events != nullptr) {
        const uint64_t now = obs::NowNs();
        if (now - shard_stall_event_ns[s] >= 1000000000ull) {
          shard_stall_event_ns[s] = now;
          opts.events->Recordf(obs::EventSeverity::kWarn, "router",
                               "shard %u trace queue full; router stalling",
                               static_cast<unsigned>(s));
        }
      }
      const uint64_t t0 = obs::NowNs();
      // false = every worker exited and the queue is poisoned; the engine
      // is shutting down and the message is moot.
      (void)q.Push(std::move(msg));
      shard_stall_ns[s] += obs::NowNs() - t0;
      if (!stall_counters.empty()) stall_counters[s]->Store(shard_stall_ns[s]);
      return;
    }
    (void)q.Push(std::move(msg));
  }

  void RouteWrite(const Trace& trace, TxnRoute& route) {
    touched.clear();
    for (const auto& w : trace.write_set) {
      const uint32_t s = ShardOfKey(w.key, opts.n_shards);
      if (!touched_flag[s]) {
        touched_flag[s] = 1;
        touched.push_back(s);
        scratch_writes[s].clear();
      }
      scratch_writes[s].push_back(w);
    }
    for (uint32_t s : touched) {
      touched_flag[s] = 0;
      ShardMsg msg;
      msg.trace.interval = trace.interval;
      msg.trace.op = OpType::kWrite;
      msg.trace.txn = trace.txn;
      msg.trace.client = trace.client;
      msg.trace.il = trace.il;
      msg.trace.ingest_ns = trace.ingest_ns;
      msg.trace.write_set = std::move(scratch_writes[s]);
      scratch_writes[s] = {};
      Send(s, std::move(msg), route);
    }
  }

  void RouteRead(const Trace& trace, TxnRoute& route) {
    // Expand range scans into per-key absences up front (exactly what
    // Leopard::ProcessRead does) so the projection is purely per-key.
    expanded_absent.assign(trace.absent_reads.begin(),
                           trace.absent_reads.end());
    if (trace.range_count > 0) {
      returned_keys.clear();
      for (const auto& r : trace.read_set) returned_keys.insert(r.key);
      for (uint32_t i = 0; i < trace.range_count; ++i) {
        const Key key = trace.range_first + i;
        if (!returned_keys.contains(key)) expanded_absent.push_back(key);
      }
    }

    touched.clear();
    auto touch = [&](uint32_t s) {
      if (!touched_flag[s]) {
        touched_flag[s] = 1;
        touched.push_back(s);
        scratch_reads[s].clear();
        scratch_absent[s].clear();
      }
    };
    for (const auto& r : trace.read_set) {
      const uint32_t s = ShardOfKey(r.key, opts.n_shards);
      touch(s);
      scratch_reads[s].push_back(r);
    }
    for (Key key : expanded_absent) {
      const uint32_t s = ShardOfKey(key, opts.n_shards);
      touch(s);
      scratch_absent[s].push_back(key);
    }
    for (uint32_t s : touched) {
      touched_flag[s] = 0;
      ShardMsg msg;
      msg.trace.interval = trace.interval;
      msg.trace.op = OpType::kRead;
      msg.trace.txn = trace.txn;
      msg.trace.client = trace.client;
      msg.trace.il = trace.il;
      msg.trace.ingest_ns = trace.ingest_ns;
      msg.trace.for_update = trace.for_update;
      msg.trace.read_set = std::move(scratch_reads[s]);
      msg.trace.absent_reads = std::move(scratch_absent[s]);
      scratch_reads[s] = {};
      scratch_absent[s] = {};
      Send(s, std::move(msg), route);
    }
  }

  void RouteTerminal(const Trace& trace, TxnRoute& route) {
    // Every shard releases the locks / finalizes the versions it owns. The
    // home shard additionally forwards the transaction's fate to the
    // certifier, behind its own deduced edges in queue order.
    const uint32_t home =
        static_cast<uint32_t>(trace.txn % opts.n_shards);
    for (uint32_t s = 0; s < opts.n_shards; ++s) {
      ShardMsg msg;
      msg.trace = trace;
      // Re-stamp with the txn's weakest level: a shard that only saw a
      // subset of the txn's (possibly unevenly tagged) traces still lands
      // on the same per-txn level as the single-threaded oracle.
      msg.trace.il = route.il;
      if (s == home && certifier != nullptr) {
        msg.emit_terminal = true;
        msg.txn_first_op = route.first_op;
      }
      Send(s, std::move(msg), route);
    }
  }

  // ---- Worker pool (work-stealing shard drains) ----

  /// Worker threads are not pinned: each scans every shard's trace queue —
  /// home shard (w % n_shards) first for locality — and drains a budgeted
  /// batch from any shard it can claim. A hot shard's backlog is therefore
  /// worked by every idle thread instead of serializing behind one pinned
  /// worker.
  void WorkerLoop(uint32_t w) {
    obs::Watchdog::Slot* wd =
        opts.watchdog != nullptr
            ? opts.watchdog->Register("worker" + std::to_string(w))
            : nullptr;
    const uint32_t n = opts.n_shards;
    const uint32_t home = w % n;
    for (;;) {
      if (wd != nullptr) wd->Beat();
      bool progress = false;
      bool all_finished = true;
      for (uint32_t k = 0; k < n; ++k) {
        const uint32_t s = (home + k) % n;
        Shard& shard = *shards[s];
        if (shard.finished.load(std::memory_order_acquire)) continue;
        all_finished = false;
        if (shard.claim.exchange(true, std::memory_order_acquire)) continue;
        const size_t drained = DrainShard(shard);
        shard.claim.store(false, std::memory_order_release);
        if (drained > 0) {
          progress = true;
          if (k != 0) {
            steal_batches.fetch_add(1, std::memory_order_relaxed);
            steal_msgs.fetch_add(drained, std::memory_order_relaxed);
          }
        }
      }
      if (all_finished) break;
      if (!progress) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (opts.watchdog != nullptr) opts.watchdog->Retire(wd);
  }

  /// Drains up to kDrainBudget messages from a claimed shard. Returns the
  /// number consumed; 0 means the queue was empty.
  size_t DrainShard(Shard& shard) {
    SpscQueue<EdgeMsg>* out = certifier != nullptr ? &shard.edges : nullptr;
    size_t processed = 0;
    ShardMsg msg;
    for (int budget = kDrainBudget; budget > 0 && shard.in.TryPop(msg);
         --budget) {
      ++processed;
      if (msg.kind == ShardMsg::Kind::kFinish) {
        shard.leopard->Finish();
        if (out != nullptr) {
          EdgeMsg done;
          done.kind = EdgeMsg::Kind::kDone;
          (void)out->Push(done);
        }
        // Unblock a router that races a push against this exit.
        shard.in.Poison();
        shard.finished.store(true, std::memory_order_release);
        return processed;
      }
      if (msg.kind == ShardMsg::Kind::kBarrier) {
        // Forward the barrier to the certifier *before* acking: once every
        // shard has acked and the certifier has swallowed all n barriers,
        // everything routed before the barrier has been fully applied.
        if (out != nullptr) {
          EdgeMsg b;
          b.kind = EdgeMsg::Kind::kBarrier;
          (void)out->Push(b);
        }
        {
          std::lock_guard<std::mutex> lock(qz_mu);
          ++qz_shard_acks;
        }
        qz_cv.notify_all();
        continue;
      }
      RecordStageVerify(msg.trace.ingest_ns);
      if (msg.has_txn_begin) {
        shard.leopard->BeginTxnAt(msg.trace.txn, msg.txn_begin);
      }
      shard.leopard->SetSafeTsBound(msg.safe_bound);
      shard.leopard->AdvanceFrontier(msg.frontier);
      shard.leopard->Process(msg.trace);
      if (msg.emit_terminal && out != nullptr) {
        EdgeMsg e;
        e.kind = msg.trace.op == OpType::kCommit ? EdgeMsg::Kind::kCommit
                                                 : EdgeMsg::Kind::kAbort;
        e.from = msg.trace.txn;
        e.first_op = msg.txn_first_op;
        e.end = msg.trace.interval;
        e.ingest_ns = msg.trace.ingest_ns;
        e.il = msg.trace.il;
        (void)out->Push(e);
      }
      if (out != nullptr && ++shard.msgs_since_safe_ts >= opts.safe_ts_every) {
        shard.msgs_since_safe_ts = 0;
        EdgeMsg e;
        e.kind = EdgeMsg::Kind::kSafeTs;
        e.ts = shard.leopard->SafeTs();
        (void)out->Push(e);
      }
    }
    return processed;
  }

  // ---- Certifier ----

  void CertifierLoop() {
    obs::Watchdog::Slot* wd = opts.watchdog != nullptr
                                  ? opts.watchdog->Register("sc.certifier")
                                  : nullptr;
    uint32_t done = 0;
    uint32_t barriers = 0;
    uint64_t iters = 0;
    uint64_t commit_samples = 0;
    while (done < opts.n_shards) {
      if (wd != nullptr) wd->Beat();
      bool any = false;
      for (uint32_t i = 0; i < opts.n_shards; ++i) {
        EdgeMsg e;
        int budget = 256;  // round-robin fairness across shard queues
        while (budget-- > 0 && shards[i]->edges.TryPop(e)) {
          any = true;
          switch (e.kind) {
            case EdgeMsg::Kind::kEdge:
              certifier->TryEdge(e);
              break;
            case EdgeMsg::Kind::kCommit:
              if (stage_certify != nullptr && e.ingest_ns != 0 &&
                  (++commit_samples & 0xf) == 0) {
                const uint64_t now = obs::NowNs();
                if (now > e.ingest_ns) stage_certify->Record(now - e.ingest_ns);
              }
              certifier->OnCommit(e);
              break;
            case EdgeMsg::Kind::kAbort:
              certifier->OnAbort(e.from);
              break;
            case EdgeMsg::Kind::kSafeTs:
              // Flush before GC: a batched edge may reference a node the
              // prune would otherwise collect from under it.
              certifier->Flush();
              certifier->OnSafeTs(i, e.ts);
              break;
            case EdgeMsg::Kind::kDone:
              ++done;
              budget = 0;
              break;
            case EdgeMsg::Kind::kBarrier:
              if (++barriers >= opts.n_shards) {
                // Every shard's pre-barrier traffic is applied: park until
                // the checkpointer releases the quiescent point. Flush
                // first — SaveState serializes the graph, so no edge may
                // still be sitting in the batch.
                certifier->Flush();
                barriers = 0;
                std::unique_lock<std::mutex> lock(qz_mu);
                qz_cert_paused = true;
                qz_cv.notify_all();
                if (wd != nullptr) wd->Suspend();
                qz_cv.wait(lock, [this] { return !qz_active; });
                if (wd != nullptr) wd->Resume();
                qz_cert_paused = false;
              }
              budget = 0;
              break;
          }
        }
      }
      // One batched graph insertion per drain sweep: Pearce–Kelly (or the
      // kFullDfs search) amortizes across every edge collected above.
      certifier->Flush();
      if ((++iters & (kGaugeSyncEvery - 1)) == 0) SyncCertifierMetrics();
      if (!any) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    certifier->Flush();
    // Edges still parked here reference transactions that never committed
    // within the run — exactly the edges the single-threaded verifier also
    // leaves unapplied at Finish().
    SyncCertifierMetrics();
    // Unblock any shard still pushing edges (it will observe the poison and
    // drop instead of spinning against a consumer that is gone).
    for (auto& shard : shards) shard->edges.Poison();
    if (opts.watchdog != nullptr) opts.watchdog->Retire(wd);
  }

  void SyncCertifierMetrics() {
    if (cert_applied == nullptr) return;
    cert_applied->Store(certifier->edges_applied);
    cert_parked->Store(certifier->edges_parked);
    cert_dropped->Store(certifier->edges_dropped);
    cert_nodes->Set(static_cast<int64_t>(certifier->graph.NodeCount()));
    cert_batch_count->Store(certifier->batch_flushes);
    cert_batch_edges->Store(certifier->batch_edges_total);
    cert_batch_max->Set(static_cast<int64_t>(certifier->batch_edges_max));
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      edge_depth_gauges[i]->Set(
          static_cast<int64_t>(shards[i]->edges.ApproxSize()));
    }
  }

  // ---- Quiesce (durable checkpoint safepoint) ----

  void Quiesce() {
    if (single != nullptr || finished) return;
    {
      std::lock_guard<std::mutex> lock(qz_mu);
      qz_active = true;
      qz_shard_acks = 0;
    }
    for (auto& shard : shards) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kBarrier;
      (void)shard->in.Push(std::move(msg));
    }
    std::unique_lock<std::mutex> lock(qz_mu);
    qz_cv.wait(lock, [this] {
      return qz_shard_acks >= opts.n_shards &&
             (certifier == nullptr || qz_cert_paused);
    });
    // The lock handoff from each worker's ack (and the certifier's pause)
    // publishes their verifier state to this thread: safe to SaveState now.
  }

  void ResumeFromQuiesce() {
    if (single != nullptr || finished) return;
    {
      std::lock_guard<std::mutex> lock(qz_mu);
      qz_active = false;
    }
    qz_cv.notify_all();
  }

  // ---- Checkpoint serialization (caller quiesced) ----

  void SaveState(StateWriter& w) const {
    w.PutU32(opts.n_shards);
    if (single != nullptr) {
      single->SaveState(w);
      return;
    }
    for (const auto& shard : shards) {
      shard->leopard->SaveState(w);
      w.PutU64(shard->msgs_since_safe_ts);
    }
    w.PutU64(frontier);
    w.PutU64(router_safe);
    w.PutU64(router_traces);
    w.PutU64(router_out_of_order);
    w.PutU64(router_weak_il);
    w.PutU64(traces_since_safe);
    w.PutU32(static_cast<uint32_t>(txn_routes.size()));
    for (const auto& [txn, route] : txn_routes) {
      w.PutU64(txn);
      serde::SaveInterval(w, route.first_op);
      w.PutU8(static_cast<uint8_t>(route.il));
      w.PutU64(route.seen_mask);
    }
    w.PutBool(certifier != nullptr);
    if (certifier == nullptr) return;
    certifier->graph.SaveState(w);
    auto save_txn_set = [&w](const std::unordered_set<TxnId>& set) {
      w.PutU32(static_cast<uint32_t>(set.size()));
      for (TxnId t : set) w.PutU64(t);
    };
    save_txn_set(certifier->committed);
    save_txn_set(certifier->aborted);
    w.PutU32(static_cast<uint32_t>(certifier->parked.size()));
    for (const auto& [txn, msgs] : certifier->parked) {
      w.PutU64(txn);
      w.PutU32(static_cast<uint32_t>(msgs.size()));
      for (const EdgeMsg& e : msgs) {
        w.PutU8(static_cast<uint8_t>(e.kind));
        w.PutU64(e.from);
        w.PutU64(e.to);
        w.PutU8(static_cast<uint8_t>(e.type));
        serde::SaveInterval(w, e.first_op);
        serde::SaveInterval(w, e.end);
        w.PutU64(e.ts);
        w.PutU64(e.ingest_ns);
        w.PutU8(static_cast<uint8_t>(e.il));
      }
    }
    w.PutU32(static_cast<uint32_t>(certifier->shard_safe.size()));
    for (Timestamp t : certifier->shard_safe) w.PutU64(t);
    w.PutU64(certifier->sc_violations);
    w.PutU64(certifier->pruned_txns);
    w.PutU64(certifier->edges_applied);
    w.PutU64(certifier->edges_parked);
    w.PutU64(certifier->edges_dropped);
    w.PutU64(certifier->sc_nodes_skipped_weak);
    w.PutU32(static_cast<uint32_t>(certifier->bugs.size()));
    for (const BugDescriptor& bug : certifier->bugs) serde::SaveBug(w, bug);
  }

  Status LoadState(StateReader& r) {
    uint32_t n_shards = 0;
    Status s = r.GetU32(n_shards);
    if (!s.ok()) return s;
    if (n_shards != opts.n_shards) {
      return Status::FailedPrecondition(
          "checkpoint was written with --shards=" + std::to_string(n_shards) +
          ", engine is running " + std::to_string(opts.n_shards));
    }
    if (single != nullptr) return single->LoadState(r);
    for (auto& shard : shards) {
      if (!(s = shard->leopard->LoadState(r)).ok()) return s;
      if (!(s = r.GetU64(shard->msgs_since_safe_ts)).ok()) return s;
    }
    if (!(s = r.GetU64(frontier)).ok()) return s;
    if (!(s = r.GetU64(router_safe)).ok()) return s;
    if (!(s = r.GetU64(router_traces)).ok()) return s;
    if (!(s = r.GetU64(router_out_of_order)).ok()) return s;
    if (!(s = r.GetU64(router_weak_il)).ok()) return s;
    if (!(s = r.GetU64(traces_since_safe)).ok()) return s;
    uint32_t n = 0;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 8 + 16 + 1 + 8)) {
      return Status::InvalidArgument("sharded state: absurd route count");
    }
    txn_routes.clear();
    txn_routes.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      TxnId txn = 0;
      if (!(s = r.GetU64(txn)).ok()) return s;
      TxnRoute route;
      if (!(s = serde::LoadInterval(r, route.first_op)).ok()) return s;
      uint8_t il = 0;
      if (!(s = r.GetU8(il)).ok()) return s;
      if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
        return Status::InvalidArgument("sharded state: bad isolation level");
      }
      route.il = static_cast<IsolationLevel>(il);
      if (!(s = r.GetU64(route.seen_mask)).ok()) return s;
      txn_routes.emplace(txn, route);
    }
    bool has_certifier = false;
    if (!(s = r.GetBool(has_certifier)).ok()) return s;
    if (has_certifier != (certifier != nullptr)) {
      return Status::FailedPrecondition(
          "checkpoint certifier presence does not match engine config");
    }
    if (certifier == nullptr) return Status::Ok();
    if (!(s = certifier->graph.LoadState(r)).ok()) return s;
    auto load_txn_set = [&r](std::unordered_set<TxnId>& set) -> Status {
      uint32_t count = 0;
      Status st = r.GetU32(count);
      if (!st.ok()) return st;
      if (!r.CountFits(count, 8)) {
        return Status::InvalidArgument("sharded state: absurd txn-set size");
      }
      set.clear();
      set.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        TxnId t = 0;
        if (!(st = r.GetU64(t)).ok()) return st;
        set.insert(t);
      }
      return Status::Ok();
    };
    if (!(s = load_txn_set(certifier->committed)).ok()) return s;
    if (!(s = load_txn_set(certifier->aborted)).ok()) return s;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 8 + 4)) {
      return Status::InvalidArgument("sharded state: absurd parked count");
    }
    certifier->parked.clear();
    for (uint32_t i = 0; i < n; ++i) {
      TxnId txn = 0;
      uint32_t n_msgs = 0;
      if (!(s = r.GetU64(txn)).ok()) return s;
      if (!(s = r.GetU32(n_msgs)).ok()) return s;
      if (!r.CountFits(n_msgs, 1 + 8 + 8 + 1 + 16 + 16 + 8 + 8 + 1)) {
        return Status::InvalidArgument(
            "sharded state: absurd parked-edge count");
      }
      auto& msgs = certifier->parked[txn];
      msgs.reserve(n_msgs);
      for (uint32_t j = 0; j < n_msgs; ++j) {
        EdgeMsg e;
        uint8_t kind = 0;
        uint8_t type = 0;
        if (!(s = r.GetU8(kind)).ok()) return s;
        if (kind > static_cast<uint8_t>(EdgeMsg::Kind::kBarrier)) {
          return Status::InvalidArgument("sharded state: bad edge kind");
        }
        e.kind = static_cast<EdgeMsg::Kind>(kind);
        if (!(s = r.GetU64(e.from)).ok()) return s;
        if (!(s = r.GetU64(e.to)).ok()) return s;
        if (!(s = r.GetU8(type)).ok()) return s;
        e.type = static_cast<DepType>(type);
        if (!(s = serde::LoadInterval(r, e.first_op)).ok()) return s;
        if (!(s = serde::LoadInterval(r, e.end)).ok()) return s;
        if (!(s = r.GetU64(e.ts)).ok()) return s;
        if (!(s = r.GetU64(e.ingest_ns)).ok()) return s;
        uint8_t il = 0;
        if (!(s = r.GetU8(il)).ok()) return s;
        if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
          return Status::InvalidArgument(
              "sharded state: bad edge isolation level");
        }
        e.il = static_cast<IsolationLevel>(il);
        msgs.push_back(e);
      }
    }
    if (!(s = r.GetU32(n)).ok()) return s;
    if (n != opts.n_shards || !r.CountFits(n, 8)) {
      return Status::InvalidArgument("sharded state: bad shard-safe vector");
    }
    certifier->shard_safe.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      if (!(s = r.GetU64(certifier->shard_safe[i])).ok()) return s;
    }
    if (!(s = r.GetU64(certifier->sc_violations)).ok()) return s;
    if (!(s = r.GetU64(certifier->pruned_txns)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_applied)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_parked)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_dropped)).ok()) return s;
    if (!(s = r.GetU64(certifier->sc_nodes_skipped_weak)).ok()) return s;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 1 + 4 + 8 + 8 + 4 + 4 + 4)) {
      return Status::InvalidArgument("sharded state: absurd bug count");
    }
    certifier->bugs.clear();
    certifier->bugs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      BugDescriptor bug;
      if (!(s = serde::LoadBug(r, bug)).ok()) return s;
      certifier->bugs.push_back(std::move(bug));
    }
    return Status::Ok();
  }

  // ---- Finish / aggregation ----

  void Finish() {
    if (finished) return;
    finished = true;
    if (single != nullptr) {
      single->Finish();
      report.stats = single->stats();
      report.bugs = single->bugs();
      return;
    }
    // kFinish is routed last on every shard: FIFO guarantees each shard
    // has applied everything routed to it before it winds down.
    for (auto& shard : shards) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kFinish;
      (void)shard->in.Push(std::move(msg));
    }
    for (auto& worker : workers) worker.join();
    if (certifier_thread.joinable()) certifier_thread.join();
    if (steal_batches_ctr != nullptr) {
      steal_batches_ctr->Store(steal_batches.load(std::memory_order_relaxed));
      steal_msgs_ctr->Store(steal_msgs.load(std::memory_order_relaxed));
    }

    report.stats = VerifierStats{};
    for (auto& shard : shards) {
      AccumulateStats(report.stats, shard->leopard->stats());
    }
    // Per-trace counters belong to the router's view: each input trace was
    // processed once logically, however many shard projections it produced.
    report.stats.traces_processed = router_traces;
    report.stats.out_of_order_traces = router_out_of_order;
    report.stats.weak_il_traces = router_weak_il;
    if (certifier != nullptr) {
      report.stats.sc_violations += certifier->sc_violations;
      report.stats.pruned_txns += certifier->pruned_txns;
      report.stats.sc_nodes_skipped_weak += certifier->sc_nodes_skipped_weak;
    }
    report.bugs.clear();
    for (auto& shard : shards) {
      const auto& shard_bugs = shard->leopard->bugs();
      report.bugs.insert(report.bugs.end(), shard_bugs.begin(),
                         shard_bugs.end());
    }
    if (certifier != nullptr) {
      report.bugs.insert(report.bugs.end(), certifier->bugs.begin(),
                         certifier->bugs.end());
    }
    // Deterministic report order: shard progress (and certifier edge
    // arrival) is timing-dependent, so sort by (ts, txns, type, key,
    // detail) and drop exact duplicates — diffs and CI logs stay stable
    // across runs whatever the thread interleaving was.
    std::sort(report.bugs.begin(), report.bugs.end(),
              [](const BugDescriptor& a, const BugDescriptor& b) {
                return std::tie(a.ts, a.txns, a.type, a.key, a.detail) <
                       std::tie(b.ts, b.txns, b.type, b.key, b.detail);
              });
    report.bugs.erase(
        std::unique(report.bugs.begin(), report.bugs.end()),
        report.bugs.end());
  }

  VerifierConfig config;
  Options opts;
  bool finished = false;

  // n_shards == 1: the inline reference verifier; everything below unused.
  std::unique_ptr<Leopard> single;

  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Certifier> certifier;
  std::thread certifier_thread;

  // Work-stealing worker pool (replaces per-shard pinned threads).
  std::vector<std::thread> workers;
  std::atomic<uint64_t> steal_batches{0};
  std::atomic<uint64_t> steal_msgs{0};

  // Per-shard router backpressure attribution (router thread only).
  std::vector<uint64_t> shard_stall_ns;
  std::vector<uint64_t> shard_stall_event_ns;

  // Quiescent-point handshake (Quiesce/ResumeFromQuiesce vs the shard and
  // certifier loops). qz_active gates the certifier's park; acks count
  // shards that drained up to their barrier.
  std::mutex qz_mu;
  std::condition_variable qz_cv;
  uint32_t qz_shard_acks = 0;
  bool qz_cert_paused = false;
  bool qz_active = false;

  // Router state (Process() caller's thread only).
  Timestamp frontier = 0;
  Timestamp router_safe = 0;
  uint64_t router_traces = 0;
  uint64_t router_out_of_order = 0;
  uint64_t router_weak_il = 0;  ///< input traces tagged below SERIALIZABLE
  uint64_t traces_since_safe = 0;
  uint64_t traces_since_gauges = 0;
  std::unordered_map<TxnId, TxnRoute> txn_routes;
  // Reused projection scratch, one slot per shard.
  std::vector<std::vector<ReadAccess>> scratch_reads;
  std::vector<std::vector<WriteAccess>> scratch_writes;
  std::vector<std::vector<Key>> scratch_absent;
  std::vector<uint8_t> touched_flag;
  std::vector<uint32_t> touched;
  std::vector<Key> expanded_absent;
  std::unordered_set<Key> returned_keys;

  /// Stage-latency attribution: read stamp -> shard verify, sampled 1-in-16
  /// because NowNs() on every projected message would show up on the hot
  /// path. The sample counter is shared by all shard workers (and the
  /// single-shard router), hence atomic.
  void RecordStageVerify(uint64_t ingest_ns) {
    if (stage_verify == nullptr || ingest_ns == 0) return;
    if ((stage_samples.fetch_add(1, std::memory_order_relaxed) & 0xf) != 0) {
      return;
    }
    const uint64_t now = obs::NowNs();
    if (now > ingest_ns) stage_verify->Record(now - ingest_ns);
  }

  // Observability (optional).
  std::vector<obs::Gauge*> trace_depth_gauges;
  std::vector<obs::Gauge*> edge_depth_gauges;
  std::vector<obs::Counter*> stall_counters;
  obs::Counter* cert_applied = nullptr;
  obs::Counter* cert_parked = nullptr;
  obs::Counter* cert_dropped = nullptr;
  obs::Gauge* cert_nodes = nullptr;
  obs::Counter* cert_batch_count = nullptr;
  obs::Counter* cert_batch_edges = nullptr;
  obs::Gauge* cert_batch_max = nullptr;
  obs::Counter* steal_batches_ctr = nullptr;
  obs::Counter* steal_msgs_ctr = nullptr;
  obs::Histogram* stage_verify = nullptr;
  obs::Histogram* stage_certify = nullptr;
  obs::Gauge* gc_safe_gauge = nullptr;
  std::atomic<uint64_t> stage_samples{0};
  uint64_t last_gc_event_ns = 0;
  Timestamp last_gc_event_safe = 0;
  uint64_t single_traces = 0;  // GC-gauge cadence for the inline verifier

  VerifyReport report;
};

ShardedLeopard::ShardedLeopard(const VerifierConfig& config,
                               const Options& options)
    : impl_(std::make_unique<Impl>(config, options)) {}

ShardedLeopard::~ShardedLeopard() = default;

void ShardedLeopard::Process(const Trace& trace) {
  if (impl_->single != nullptr) {
    impl_->RecordStageVerify(trace.ingest_ns);
    impl_->single->Process(trace);
    if (impl_->gc_safe_gauge != nullptr &&
        (++impl_->single_traces & (kRouterSafeEvery - 1)) == 0) {
      impl_->gc_safe_gauge->Set(
          static_cast<int64_t>(impl_->single->SafeTs()));
    }
    return;
  }
  impl_->Route(trace);
}

void ShardedLeopard::Finish() { impl_->Finish(); }

void ShardedLeopard::Quiesce() { impl_->Quiesce(); }

void ShardedLeopard::ResumeFromQuiesce() { impl_->ResumeFromQuiesce(); }

void ShardedLeopard::SaveState(StateWriter& w) const { impl_->SaveState(w); }

Status ShardedLeopard::LoadState(StateReader& r) {
  return impl_->LoadState(r);
}

const VerifyReport& ShardedLeopard::report() const { return impl_->report; }

const Leopard& ShardedLeopard::single() const {
  assert(impl_->single != nullptr);
  return *impl_->single;
}

uint32_t ShardedLeopard::n_shards() const { return impl_->opts.n_shards; }

size_t ShardedLeopard::ApproxMemoryBytes() const {
  if (impl_->single != nullptr) return impl_->single->ApproxMemoryBytes();
  if (!impl_->finished) return 0;  // shard state is only stable post-join
  size_t bytes = 0;
  for (const auto& shard : impl_->shards) {
    bytes += shard->leopard->ApproxMemoryBytes();
  }
  if (impl_->certifier != nullptr) {
    bytes += impl_->certifier->graph.ApproxBytes();
  }
  return bytes;
}

uint32_t ShardedLeopard::ShardOfKey(Key key, uint32_t n_shards) {
  if (n_shards <= 1) return 0;
  // splitmix64 finalizer (HashU64): cheap, and spreads dense key spaces
  // uniformly.
  return static_cast<uint32_t>(HashU64(key) % n_shards);
}

}  // namespace leopard

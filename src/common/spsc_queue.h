#ifndef LEOPARD_COMMON_SPSC_QUEUE_H_
#define LEOPARD_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace leopard {

/// Bounded single-producer/single-consumer queue: a Lamport ring buffer with
/// acquire/release index publication, plus a parked-consumer wakeup path so
/// an idle consumer does not spin a core away (the sharded verifier runs one
/// queue per worker; on small machines the workers outnumber the cores).
///
/// Contract: exactly one thread calls Push, and at most one thread at a
/// time acts as the consumer (TryPop/PopWait). The consumer role may be
/// handed between threads provided the handoff synchronizes (the sharded
/// verifier's work-stealing workers serialize it through a per-shard
/// acquire/release claim flag, which also publishes the consumer-local tail
/// cache). Push blocks (spin, then yield) when the ring is full — that
/// back-pressure is what bounds the sharded verifier's memory. A dead
/// or wedged consumer would otherwise trap the producer in that spin
/// forever; Poison() is the shutdown escape — any thread may call it, after
/// which a full-ring Push gives up and returns false instead of waiting for
/// space that will never come.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t capacity = 4096) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Blocks while the ring is full; returns false (dropping
  /// `item`) if the queue was poisoned before a slot freed up. A push that
  /// finds space proceeds even when poisoned — the element is already
  /// bought and the consumer may still drain.
  bool Push(T item) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    // Full when tail catches up to head + capacity; spin-then-yield until
    // the consumer frees a slot or someone poisons the queue.
    size_t spins = 0;
    while (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        if (poisoned_.load(std::memory_order_acquire)) return false;
        if (++spins < 64) {
          // brief busy wait
        } else {
          std::this_thread::yield();
        }
      }
    }
    ring_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    if (consumer_parked_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(park_mu_);
      park_cv_.notify_one();
    }
    return true;
  }

  /// Shutdown escape: unblocks a producer stuck in Push on a full ring
  /// (future full-ring pushes fail fast too) and wakes a parked consumer so
  /// it can observe termination. Elements already in the ring stay
  /// poppable. Safe from any thread; irreversible.
  void Poison() {
    poisoned_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }

  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T& out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(ring_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: TryPop with a bounded park when the ring is empty.
  /// Returns false if nothing arrived within `max_wait` (spurious wakeups
  /// and missed notifies are absorbed by the timeout — callers loop).
  bool PopWait(T& out, std::chrono::microseconds max_wait) {
    if (TryPop(out)) return true;
    for (int i = 0; i < 64; ++i) {
      std::this_thread::yield();
      if (TryPop(out)) return true;
    }
    consumer_parked_.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      // Re-check under the lock: a push that raced with the park flag has
      // either published its element (visible to TryPop now) or will take
      // the lock and notify after we wait. The timeout absorbs the rest.
      if (!TryPop(out)) {
        park_cv_.wait_for(lock, max_wait);
      } else {
        consumer_parked_.store(false, std::memory_order_release);
        return true;
      }
    }
    consumer_parked_.store(false, std::memory_order_release);
    return TryPop(out);
  }

  /// Approximate occupancy; safe from any thread (monitoring only).
  size_t ApproxSize() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  // Producer and consumer indices live on separate cache lines so the two
  // threads never false-share; each side caches the other's index to avoid
  // touching the shared line on every call.
  alignas(64) std::atomic<size_t> tail_{0};  // producer writes
  alignas(64) size_t head_cache_ = 0;        // producer-local
  alignas(64) std::atomic<size_t> head_{0};  // consumer writes
  alignas(64) size_t tail_cache_ = 0;        // consumer-local
  std::vector<T> ring_;
  size_t mask_ = 0;

  std::atomic<bool> consumer_parked_{false};
  std::atomic<bool> poisoned_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

}  // namespace leopard

#endif  // LEOPARD_COMMON_SPSC_QUEUE_H_

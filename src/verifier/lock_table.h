#ifndef LEOPARD_VERIFIER_LOCK_TABLE_H_
#define LEOPARD_VERIFIER_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/interval.h"
#include "common/state_codec.h"
#include "trace/trace.h"

namespace leopard {

/// The four-way outcome of ordering two transactions' (start, end) interval
/// pairs when their exact instants are unknown (Theorems 3 & 4). For ME the
/// pair is (lock acquire, lock release); for FUW it is (snapshot
/// generation, commit). "t0 then t1" is possible iff some point of t0's end
/// interval precedes some point of t1's start interval.
enum class PairOrder : uint8_t {
  kViolation = 0,     ///< neither order possible: overlap forbidden
  kFirstThenSecond,   ///< only t0 -> t1 possible: deduce a ww dependency
  kSecondThenFirst,   ///< only t1 -> t0 possible
  kUncertain,         ///< both orders possible (requires clock anomalies)
};

inline PairOrder OrderTxnPair(const TimeInterval& start0,
                              const TimeInterval& end0,
                              const TimeInterval& start1,
                              const TimeInterval& end1) {
  (void)start0;
  (void)start1;
  bool zero_first = PossiblyBefore(end0, start1);  // end0.bef < start1.aft
  bool one_first = PossiblyBefore(end1, start0);
  if (zero_first && one_first) return PairOrder::kUncertain;
  if (zero_first) return PairOrder::kFirstThenSecond;
  if (one_first) return PairOrder::kSecondThenFirst;
  return PairOrder::kViolation;
}

/// A transaction's lock footprint on one record, reconstructed from traces:
/// a write op acquires the exclusive lock, a read op (under locking-read
/// configurations) the shared lock; the terminal commit/abort op releases
/// everything (strict 2PL).
struct LockRec {
  TxnId txn = 0;
  bool has_s = false;
  bool has_x = false;
  TimeInterval s_acquire;
  TimeInterval x_acquire;
  bool released = false;
  /// Set at release time: did the owning transaction commit? Violation
  /// checks include aborted holders (they did hold the lock); dependency
  /// deduction only uses committed ones.
  bool committed = false;
  TimeInterval release;
  /// Isolation level the owning transaction declared. Mutual exclusion only
  /// binds a conflicting pair when *both* holders promised transaction-scope
  /// locking (>= REPEATABLE_READ); weaker holders' overlaps are legitimate.
  IsolationLevel il = IsolationLevel::kSerializable;
};

/// Mirror of the DBMS lock table (§V-B): per-record lists of lock
/// acquire/release time intervals. The ME verifier walks these lists when a
/// transaction releases its locks.
class MirrorLockTable {
 public:
  /// Records a lock acquisition (first acquisition of each mode wins; a
  /// repeated write keeps the earliest X interval). `il` is the owning
  /// transaction's declared isolation level (the weakest seen wins).
  void NoteAcquire(Key key, TxnId txn, bool exclusive, TimeInterval acquire,
                   IsolationLevel il = IsolationLevel::kSerializable);

  /// Marks `txn`'s locks on `keys` released at `release`.
  void NoteRelease(TxnId txn, const Key* keys, size_t n, TimeInterval release,
                   bool committed);
  void NoteRelease(TxnId txn, const std::vector<Key>& keys,
                   TimeInterval release, bool committed) {
    NoteRelease(txn, keys.data(), keys.size(), release, committed);
  }

  std::vector<LockRec>* Get(Key key);

  /// Prunes released lock records with release.aft < safe_ts. A key that
  /// still has an unreleased record keeps its whole history (a pending pair
  /// evaluation may need it). Returns records removed.
  size_t Prune(Timestamp safe_ts);

  /// Checkpoint hooks (src/durable): serializes every lock list in full.
  /// LoadState replaces the table's contents and rebuilds the derived state
  /// (released-key set, heap-byte accounting) from the loaded lists.
  void SaveState(StateWriter& w) const;
  Status LoadState(StateReader& r);

  size_t KeyCount() const { return map_.size(); }
  size_t RecordCount() const;
  size_t ApproxBytes() const;
  /// Memory-layer observability: growths of the per-key table.
  uint64_t RehashCount() const { return map_.rehash_count(); }
  /// O(1) footprint of the table arrays (entries' own heap excluded).
  size_t TableBytes() const { return map_.MemoryBytes(); }

 private:
  FlatHashMap<Key, std::vector<LockRec>> map_;
  /// Prune candidates: keys with at least one released record since the
  /// last sweep. Only a release can create prunable history, so Prune walks
  /// this set instead of the whole table; a key whose remaining records are
  /// all unreleased (or that emptied) leaves the set and re-enters on its
  /// next NoteRelease.
  FlatHashMap<Key, uint8_t> released_keys_;
  std::vector<Key> prune_scratch_;  ///< settled keys collected during Prune
  /// Running sum of the lock lists' heap capacities (maintained on
  /// NoteAcquire growth and Prune key erasure) so ApproxBytes is O(1).
  size_t list_heap_bytes_ = 0;
};

}  // namespace leopard

#endif  // LEOPARD_VERIFIER_LOCK_TABLE_H_

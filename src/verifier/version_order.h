#ifndef LEOPARD_VERIFIER_VERSION_ORDER_H_
#define LEOPARD_VERIFIER_VERSION_ORDER_H_

#include <cstdint>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/interval.h"
#include "common/small_vector.h"
#include "common/state_codec.h"
#include "trace/trace.h"

namespace leopard {

/// Writer outcome as learned from terminal traces.
enum class WriterStatus : uint8_t { kUnknown = 0, kCommitted, kAborted };

/// One installed version of a record, as reconstructed from a write trace.
/// Commit-side fields are filled in when the writer's terminal trace is
/// dispatched.
struct VersionEntry {
  Value value = 0;
  TxnId writer = 0;
  TimeInterval install;          ///< version installation time interval
  WriterStatus status = WriterStatus::kUnknown;
  TimeInterval writer_snapshot;  ///< writer's snapshot generation interval
  TimeInterval writer_commit;    ///< writer's commit interval
  /// Writer's declared isolation level, backfilled at its commit. FUW only
  /// binds writer pairs where both declared snapshot scope (>= RR).
  IsolationLevel writer_il = IsolationLevel::kSerializable;
  /// Transactions whose reads matched this version uniquely (for rw
  /// antidependency deduction, Fig. 9). Inline for the common 0–2 readers.
  SmallVector<TxnId, 2> readers;
};

/// The candidate version set of a read (§V-A): every version possibly
/// visible under the snapshot generation interval, minimized per Theorem 2
/// to overlap versions, the pivot version and pivot-overlap versions.
struct CandidateSet {
  /// Indices into the key's ordered version list. Inline storage: the
  /// minimized set (Theorem 2) is tiny, so computing it allocates nothing.
  SmallVector<uint32_t, 8> indices;
  /// True when a pivot exists (some version certainly precedes the
  /// snapshot). When false and indices is empty the record had no version
  /// yet — a read of it cannot be CR-checked.
  bool has_pivot = false;
};

/// Ordered version lists per record (§V-A): versions sorted by the after
/// timestamp of their installation interval, built incrementally from write
/// traces, consumed by the CR and FUW verifiers.
class VersionOrderIndex {
 public:
  struct InstallResult {
    size_t index = SIZE_MAX;        ///< position of the inserted version
    size_t certain_prev = SIZE_MAX; ///< certainly-preceding direct
                                    ///< predecessor, if one exists
  };

  /// Inserts a version keeping the list sorted by install.aft.
  InstallResult Install(Key key, Value value, TxnId writer,
                        TimeInterval install);

  std::vector<VersionEntry>* Get(Key key);
  const std::vector<VersionEntry>* Get(Key key) const;

  /// Computes the minimal candidate version set for a snapshot interval.
  CandidateSet Candidates(Key key, TimeInterval snapshot) const;

  /// Relaxed candidate set (MVTO verification): every version possibly
  /// installed before the snapshot interval ended, i.e. everything except
  /// certain future versions.
  CandidateSet CandidatesRelaxed(Key key, TimeInterval snapshot) const;

  /// Removes all versions written by an aborted transaction on `key`.
  /// Returns the readers of the removed versions (dirty readers).
  std::vector<TxnId> RemoveAborted(Key key, TxnId writer);

  /// Prunes versions that can never again be a candidate for any snapshot
  /// with bef >= safe_ts, provided their writers committed with
  /// writer_commit.aft < safe_ts. Returns versions removed.
  size_t Prune(Timestamp safe_ts);

  /// Checkpoint hooks (src/durable): serializes every version list in full.
  /// LoadState replaces the index's contents and rebuilds the derived state
  /// (prune-candidate set, heap-byte accounting) from the loaded lists.
  void SaveState(StateWriter& w) const;
  Status LoadState(StateReader& r);

  size_t KeyCount() const { return map_.size(); }
  size_t VersionCount() const;
  size_t ApproxBytes() const;
  /// Memory-layer observability: growths of the per-key table.
  uint64_t RehashCount() const { return map_.rehash_count(); }
  /// O(1) footprint of the table arrays (entries' own heap excluded).
  size_t TableBytes() const { return map_.MemoryBytes(); }

 private:
  FlatHashMap<Key, std::vector<VersionEntry>> map_;
  /// Prune candidates: keys whose list reached two or more versions. A
  /// single-version key can never be pruned (the pivot always survives), and
  /// read-mostly workloads keep most keys at one version forever — sweeping
  /// only this set makes Prune O(contended keys), not O(all keys). Keys
  /// leave the set when a sweep finds them back at <= 1 version and re-enter
  /// on the next 1 -> 2 install.
  FlatHashMap<Key, uint8_t> multi_version_;
  std::vector<Key> prune_scratch_;  ///< settled keys collected during Prune
  /// Running sum of the version lists' heap capacities, maintained at the
  /// two sites where a list's allocation can change (Install growth,
  /// RemoveAborted emptying a key) so ApproxBytes is O(1) instead of a
  /// full-table walk per memory sample.
  size_t list_heap_bytes_ = 0;
};

}  // namespace leopard

#endif  // LEOPARD_VERIFIER_VERSION_ORDER_H_

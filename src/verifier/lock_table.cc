#include "verifier/lock_table.h"

#include "verifier/state_serde.h"

namespace leopard {

void MirrorLockTable::NoteAcquire(Key key, TxnId txn, bool exclusive,
                                  TimeInterval acquire, IsolationLevel il) {
  auto& list = map_[key];
  for (auto& rec : list) {
    if (rec.txn != txn) continue;
    if (il < rec.il) rec.il = il;
    if (exclusive) {
      if (!rec.has_x) {
        rec.has_x = true;
        rec.x_acquire = acquire;
      }
    } else if (!rec.has_s) {
      rec.has_s = true;
      rec.s_acquire = acquire;
    }
    return;
  }
  LockRec rec;
  rec.txn = txn;
  rec.il = il;
  if (exclusive) {
    rec.has_x = true;
    rec.x_acquire = acquire;
  } else {
    rec.has_s = true;
    rec.s_acquire = acquire;
  }
  size_t cap_before = list.capacity();
  list.push_back(rec);
  list_heap_bytes_ += (list.capacity() - cap_before) * sizeof(LockRec);
}

void MirrorLockTable::NoteRelease(TxnId txn, const Key* keys, size_t n,
                                  TimeInterval release, bool committed) {
  for (size_t i = 0; i < n; ++i) {
    auto it = map_.find(keys[i]);
    if (it == map_.end()) continue;
    for (auto& rec : it->second) {
      if (rec.txn == txn) {
        rec.released = true;
        rec.committed = committed;
        rec.release = release;
        released_keys_.try_emplace(keys[i]);
        break;
      }
    }
  }
}

std::vector<LockRec>* MirrorLockTable::Get(Key key) {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

size_t MirrorLockTable::Prune(Timestamp safe_ts) {
  size_t removed = 0;
  // Sweep only keys that saw a release since their last settling — a key
  // whose records are all unreleased cannot have prunable history yet.
  // See VersionOrderIndex::Prune for the collect-then-erase discipline on
  // the open-addressing tables.
  prune_scratch_.clear();
  for (const auto& cand : released_keys_) {
    auto mit = map_.find(cand.first);
    if (mit == map_.end()) {
      prune_scratch_.push_back(cand.first);
      continue;
    }
    auto& list = mit->second;
    bool has_unreleased = false;
    for (const auto& rec : list) {
      if (!rec.released) {
        has_unreleased = true;
        break;
      }
    }
    if (!has_unreleased) {
      for (auto it = list.begin(); it != list.end();) {
        if (it->released && it->release.aft < safe_ts) {
          it = list.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
    }
    // Settled: nothing released remains to prune later. An unreleased
    // holder will re-register the key when its release arrives.
    if (list.empty() || has_unreleased) prune_scratch_.push_back(cand.first);
  }
  for (Key settled : prune_scratch_) {
    released_keys_.erase(settled);
    auto mit = map_.find(settled);
    if (mit != map_.end() && mit->second.empty()) {
      list_heap_bytes_ -= mit->second.capacity() * sizeof(LockRec);
      map_.erase(settled);
    }
  }
  return removed;
}

void MirrorLockTable::SaveState(StateWriter& w) const {
  w.PutU32(static_cast<uint32_t>(map_.size()));
  for (const auto& [key, list] : map_) {
    w.PutU64(key);
    w.PutU32(static_cast<uint32_t>(list.size()));
    for (const LockRec& rec : list) {
      w.PutU64(rec.txn);
      w.PutBool(rec.has_s);
      w.PutBool(rec.has_x);
      serde::SaveInterval(w, rec.s_acquire);
      serde::SaveInterval(w, rec.x_acquire);
      w.PutBool(rec.released);
      w.PutBool(rec.committed);
      serde::SaveInterval(w, rec.release);
      w.PutU8(static_cast<uint8_t>(rec.il));
    }
  }
}

Status MirrorLockTable::LoadState(StateReader& r) {
  map_.clear();
  released_keys_.clear();
  list_heap_bytes_ = 0;
  uint32_t n_keys = 0;
  Status s = r.GetU32(n_keys);
  if (!s.ok()) return s;
  if (!r.CountFits(n_keys, 12)) {
    return Status::InvalidArgument("lock table: absurd key count");
  }
  map_.reserve(n_keys);
  for (uint32_t k = 0; k < n_keys; ++k) {
    Key key = 0;
    uint32_t n_recs = 0;
    if (!(s = r.GetU64(key)).ok()) return s;
    if (!(s = r.GetU32(n_recs)).ok()) return s;
    if (!r.CountFits(n_recs, 8 + 2 + 16 + 16 + 2 + 16 + 1)) {
      return Status::InvalidArgument("lock table: absurd record count");
    }
    auto& list = map_[key];
    list.reserve(n_recs);
    bool any_released = false;
    for (uint32_t i = 0; i < n_recs; ++i) {
      LockRec rec;
      if (!(s = r.GetU64(rec.txn)).ok()) return s;
      if (!(s = r.GetBool(rec.has_s)).ok()) return s;
      if (!(s = r.GetBool(rec.has_x)).ok()) return s;
      if (!(s = serde::LoadInterval(r, rec.s_acquire)).ok()) return s;
      if (!(s = serde::LoadInterval(r, rec.x_acquire)).ok()) return s;
      if (!(s = r.GetBool(rec.released)).ok()) return s;
      if (!(s = r.GetBool(rec.committed)).ok()) return s;
      if (!(s = serde::LoadInterval(r, rec.release)).ok()) return s;
      uint8_t il = 0;
      if (!(s = r.GetU8(il)).ok()) return s;
      if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
        return Status::InvalidArgument("lock table: bad isolation level");
      }
      rec.il = static_cast<IsolationLevel>(il);
      any_released |= rec.released;
      list.push_back(rec);
    }
    list_heap_bytes_ += list.capacity() * sizeof(LockRec);
    // Conservative: any released record re-registers the key as a prune
    // candidate; the next sweep settles it exactly as NoteRelease would.
    if (any_released) released_keys_.try_emplace(key);
  }
  return Status::Ok();
}

size_t MirrorLockTable::RecordCount() const {
  size_t n = 0;
  for (const auto& [k, list] : map_) n += list.size();
  return n;
}

size_t MirrorLockTable::ApproxBytes() const {
  // O(1): see VersionOrderIndex::ApproxBytes for why this is incremental.
  return map_.MemoryBytes() + released_keys_.MemoryBytes() +
         list_heap_bytes_;
}

}  // namespace leopard

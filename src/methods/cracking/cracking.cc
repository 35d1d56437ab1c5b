#include "methods/cracking/cracking.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rum {

CrackedColumn::CrackedColumn(const Options& options)
    : min_piece_(std::max<size_t>(1, options.cracking.min_piece_entries)),
      merge_threshold_(options.cracking.delta_merge_threshold) {}

size_t CrackedColumn::size() const { return live_keys_.size(); }

void CrackedColumn::RecountSpace() {
  uint64_t total =
      static_cast<uint64_t>(column_.size() + pending_.size()) * kEntrySize +
      static_cast<uint64_t>(cracks_.size()) * kCrackNodeSize +
      static_cast<uint64_t>(deleted_.size()) * sizeof(Key);
  uint64_t base =
      std::min(static_cast<uint64_t>(live_keys_.size()) * kEntrySize, total);
  counters().SetSpace(DataClass::kBase, base);
  counters().SetSpace(DataClass::kAux, total - base);
}

void CrackedColumn::PieceFor(Key key, size_t* start, size_t* end) const {
  // cracks_ maps crack key -> first position >= crack key. The piece
  // containing `key` spans from the position of the greatest crack <= key
  // to the position of the smallest crack > key.
  *start = 0;
  *end = column_.size();
  auto it = cracks_.upper_bound(key);
  if (it != cracks_.end()) *end = it->second;
  if (it != cracks_.begin()) {
    --it;
    *start = it->second;
  }
}

size_t CrackedColumn::CrackAt(Key key) {
  // Index probe: descending the cracker index reads O(log) nodes.
  counters().OnRead(DataClass::kAux,
                    kCrackNodeSize * (1 + static_cast<uint64_t>(
                                              cracks_.empty()
                                                  ? 0
                                                  : std::bit_width(
                                                        cracks_.size()))));
  auto exact = cracks_.find(key);
  if (exact != cracks_.end()) return exact->second;

  size_t start, end;
  PieceFor(key, &start, &end);
  if (end - start <= min_piece_) {
    return start;  // Piece small enough: scan instead of cracking.
  }
  // Partition the piece: elements < key to the front. Reads the whole
  // piece; every swap rewrites two entries.
  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(end - start) * kEntrySize);
  size_t lo = start;
  size_t hi = end;
  while (lo < hi) {
    if (column_[lo].key < key) {
      ++lo;
    } else {
      --hi;
      if (lo != hi) {
        std::swap(column_[lo], column_[hi]);
        counters().OnWrite(DataClass::kBase, 2 * kEntrySize);
      }
    }
  }
  cracks_[key] = lo;
  // One cracker-index node written.
  counters().OnWrite(DataClass::kAux, kCrackNodeSize);
  RecountSpace();
  return lo;
}

Status CrackedColumn::MergePending() {
  // Fold the delta in: newest pending version of a key wins over the
  // column; deleted keys vanish. The column is rebuilt and the cracker
  // index reset -- adaptive indexing pays for updates by re-learning.
  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(column_.size() + pending_.size()) *
                        kEntrySize);
  std::unordered_set<Key> overridden;
  overridden.reserve(pending_.size());
  for (const Entry& e : pending_) overridden.insert(e.key);

  std::vector<Entry> fresh;
  fresh.reserve(column_.size() + pending_.size());
  for (const Entry& e : column_) {
    if (deleted_.find(e.key) == deleted_.end() &&
        overridden.find(e.key) == overridden.end()) {
      fresh.push_back(e);
    }
  }
  // Newest pending version of each key wins.
  std::unordered_set<Key> seen;
  for (size_t i = pending_.size(); i-- > 0;) {
    const Entry& e = pending_[i];
    if (deleted_.find(e.key) != deleted_.end()) continue;
    if (seen.insert(e.key).second) fresh.push_back(e);
  }
  column_ = std::move(fresh);
  pending_.clear();
  deleted_.clear();
  cracks_.clear();
  counters().OnWrite(DataClass::kBase,
                     static_cast<uint64_t>(column_.size()) * kEntrySize);
  RecountSpace();
  return Status::OK();
}

Status CrackedColumn::Insert(Key key, Value value) {
  counters().OnInsert();
  counters().OnLogicalWrite(kEntrySize);
  deleted_.erase(key);
  pending_.push_back(Entry{key, value});
  counters().OnWrite(DataClass::kBase, kEntrySize);
  live_keys_.insert(key);
  if (pending_.size() + deleted_.size() >= merge_threshold_) {
    return MergePending();
  }
  RecountSpace();
  return Status::OK();
}

Status CrackedColumn::Delete(Key key) {
  counters().OnDelete();
  counters().OnLogicalWrite(kEntrySize);
  deleted_.insert(key);
  counters().OnWrite(DataClass::kAux, sizeof(Key));
  live_keys_.erase(key);
  if (pending_.size() + deleted_.size() >= merge_threshold_) {
    return MergePending();
  }
  RecountSpace();
  return Status::OK();
}

Result<Value> CrackedColumn::Get(Key key) {
  counters().OnPointQuery();
  // Pending delta first (newest wins), scanned backwards.
  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(pending_.size()) * kEntrySize);
  for (size_t i = pending_.size(); i-- > 0;) {
    if (pending_[i].key == key) {
      if (deleted_.find(key) != deleted_.end()) return Status::NotFound();
      counters().OnLogicalRead(kEntrySize);
      return pending_[i].value;
    }
  }
  if (deleted_.find(key) != deleted_.end()) return Status::NotFound();

  if (key == kMaxKey) {
    // Cannot crack at key+1; scan the last piece.
    size_t start, end;
    PieceFor(key, &start, &end);
    counters().OnRead(DataClass::kBase,
                      static_cast<uint64_t>(end - start) * kEntrySize);
    for (size_t i = start; i < end; ++i) {
      if (column_[i].key == key) {
        counters().OnLogicalRead(kEntrySize);
        return column_[i].value;
      }
    }
    return Status::NotFound();
  }

  size_t lo_pos = CrackAt(key);
  size_t hi_pos = CrackAt(key + 1);
  size_t start, end;
  if (cracks_.find(key) != cracks_.end() &&
      cracks_.find(key + 1) != cracks_.end()) {
    start = lo_pos;
    end = hi_pos;
  } else {
    // At least one bound fell in a small piece; scan that piece.
    PieceFor(key, &start, &end);
  }
  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(end - start) * kEntrySize);
  for (size_t i = start; i < end; ++i) {
    if (column_[i].key == key) {
      counters().OnLogicalRead(kEntrySize);
      return column_[i].value;
    }
  }
  return Status::NotFound();
}

Status CrackedColumn::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  counters().OnRangeQuery();

  size_t start_hint = CrackAt(lo);
  size_t end_hint =
      hi == kMaxKey ? column_.size() : CrackAt(hi + 1);
  size_t start, end;
  PieceFor(lo, &start, &end);
  size_t scan_start = cracks_.count(lo) != 0 ? start_hint : start;
  size_t scan_end;
  if (hi == kMaxKey) {
    scan_end = column_.size();
  } else if (cracks_.count(hi + 1) != 0) {
    scan_end = end_hint;
  } else {
    size_t hstart, hend;
    PieceFor(hi, &hstart, &hend);
    scan_end = hend;
  }

  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(scan_end - scan_start) *
                        kEntrySize);
  std::vector<Entry> hits;
  std::unordered_set<Key> shadowed;
  // Pending versions shadow column versions.
  counters().OnRead(DataClass::kBase,
                    static_cast<uint64_t>(pending_.size()) * kEntrySize);
  std::unordered_set<Key> seen;
  for (size_t i = pending_.size(); i-- > 0;) {
    const Entry& e = pending_[i];
    shadowed.insert(e.key);
    if (e.key < lo || e.key > hi) continue;
    if (deleted_.find(e.key) != deleted_.end()) continue;
    if (seen.insert(e.key).second) hits.push_back(e);
  }
  for (size_t i = scan_start; i < scan_end; ++i) {
    const Entry& e = column_[i];
    if (e.key < lo || e.key > hi) continue;
    if (deleted_.find(e.key) != deleted_.end()) continue;
    if (shadowed.find(e.key) != shadowed.end()) continue;
    hits.push_back(e);
  }
  std::sort(hits.begin(), hits.end());
  counters().OnLogicalRead(static_cast<uint64_t>(hits.size()) * kEntrySize);
  out->insert(out->end(), hits.begin(), hits.end());
  return Status::OK();
}

Status CrackedColumn::BulkLoad(std::span<const Entry> entries) {
  Status s = CheckBulkLoadPreconditions(entries);
  if (!s.ok()) return s;
  column_.assign(entries.begin(), entries.end());
  // Cracking famously does *not* sort on load -- shuffle deterministically
  // so the adaptive behaviour is observable. (A sorted column would make
  // every piece trivially sorted.)
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (size_t i = column_.size(); i > 1; --i) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    size_t j = static_cast<size_t>((state * 0x2545F4914F6CDD1DULL) % i);
    std::swap(column_[i - 1], column_[j]);
  }
  live_keys_.reserve(column_.size());
  for (const Entry& e : column_) live_keys_.insert(e.key);
  counters().OnWrite(DataClass::kBase,
                     static_cast<uint64_t>(column_.size()) * kEntrySize);
  counters().OnLogicalWrite(static_cast<uint64_t>(column_.size()) *
                            kEntrySize);
  RecountSpace();
  return Status::OK();
}

Status CrackedColumn::Flush() { return MergePending(); }

}  // namespace rum

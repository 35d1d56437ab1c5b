#include "methods/btree/btree_node.h"

#include <algorithm>
#include <cstring>

#include "storage/page_format.h"

namespace rum {

namespace {
constexpr size_t kLeafHeader = BTreeLeaf::kHeaderBytes;
constexpr size_t kInnerHeader = 1 + 4;
constexpr uint8_t kLeafType = BTreeLeaf::kTypeByte;
constexpr uint8_t kInnerType = 1;
}  // namespace

size_t BTreeLeaf::CapacityFor(size_t node_size) {
  return (node_size - kLeafHeader) / kEntrySize;
}

Status BTreeLeaf::EncodeTo(size_t node_size, std::vector<uint8_t>* out) const {
  if (entries.size() > CapacityFor(node_size)) {
    return Status::ResourceExhausted("leaf overflow");
  }
  out->resize(node_size);
  return EncodeInto(*out);
}

Status BTreeLeaf::EncodeInto(std::span<uint8_t> block) const {
  if (entries.size() > CapacityFor(block.size())) {
    return Status::ResourceExhausted("leaf overflow");
  }
  std::memset(block.data(), 0, block.size());
  block[0] = kLeafType;
  EncodeU32(static_cast<uint32_t>(entries.size()), block.data() + 1);
  EncodeU32(next, block.data() + 5);
  uint8_t* cursor = block.data() + kLeafHeader;
  for (const Entry& e : entries) {
    EncodeU64(e.key, cursor);
    EncodeU64(e.value, cursor + 8);
    cursor += kEntrySize;
  }
  return Status::OK();
}

Status BTreeLeaf::FindInBlock(std::span<const uint8_t> block, Key key,
                              Value* value, bool* found) {
  size_t n;
  size_t slot;
  Status s = LowerBoundInBlock(block, key, &n, &slot, found);
  if (!s.ok()) return s;
  if (*found) *value = DecodeU64(block.data() + kLeafHeader +
                                 slot * kEntrySize + 8);
  return Status::OK();
}

Status BTreeLeaf::LowerBoundInBlock(std::span<const uint8_t> block, Key key,
                                    size_t* count, size_t* slot,
                                    bool* found) {
  if (block.size() < kLeafHeader || block[0] != kLeafType) {
    return Status::Corruption("not a leaf block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kLeafHeader + static_cast<size_t>(n) * kEntrySize > block.size()) {
    return Status::Corruption("leaf count exceeds block");
  }
  const uint8_t* base = block.data() + kLeafHeader;
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (DecodeU64(base + mid * kEntrySize) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *count = n;
  *slot = lo;
  *found = lo < n && DecodeU64(base + lo * kEntrySize) == key;
  return Status::OK();
}

void BTreeLeaf::PutInBlock(std::span<uint8_t> block, size_t count,
                           size_t slot, Entry e, bool replace) {
  uint8_t* at = block.data() + kLeafHeader + slot * kEntrySize;
  if (!replace) {
    std::memmove(at + kEntrySize, at, (count - slot) * kEntrySize);
    EncodeU32(static_cast<uint32_t>(count + 1), block.data() + 1);
  }
  EncodeU64(e.key, at);
  EncodeU64(e.value, at + 8);
}

void BTreeLeaf::EraseInBlock(std::span<uint8_t> block, size_t count,
                             size_t slot) {
  uint8_t* base = block.data() + kLeafHeader;
  std::memmove(base + slot * kEntrySize, base + (slot + 1) * kEntrySize,
               (count - slot - 1) * kEntrySize);
  std::memset(base + (count - 1) * kEntrySize, 0, kEntrySize);
  EncodeU32(static_cast<uint32_t>(count - 1), block.data() + 1);
}

Status BTreeLeaf::MultiFindInBlock(
    std::span<const uint8_t> block,
    std::span<const std::pair<Key, uint32_t>> batch,
    std::vector<std::optional<Value>>* out, size_t* found_count) {
  *found_count = 0;
  if (block.size() < kLeafHeader || block[0] != kLeafType) {
    return Status::Corruption("not a leaf block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kLeafHeader + static_cast<size_t>(n) * kEntrySize > block.size()) {
    return Status::Corruption("leaf count exceeds block");
  }
  const uint8_t* base = block.data() + kLeafHeader;
  auto key_at = [&](size_t i) { return DecodeU64(base + i * kEntrySize); };
  // The first key bisects the whole leaf (its slot is anywhere). Later
  // keys resume right of the previous key's lower bound: a dense batch
  // (several keys per handful of slots) gallops, since the next slot is a
  // short hop away; a sparse one bisects the remainder, since doubling
  // across most of the node costs more probes than halving it.
  const bool dense = batch.size() * 16 >= static_cast<size_t>(n);
  size_t lo = 0;
  bool first = true;
  for (const auto& [key, idx] : batch) {
    if (first) {
      size_t x = 0;
      size_t y = n;
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (key_at(mid) < key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      lo = x;
      first = false;
    } else if (lo < n && key_at(lo) < key) {
      size_t x;
      size_t y;
      if (dense) {
        size_t last_below = lo;  // Greatest probed slot with key_at < key.
        size_t step = 1;
        while (lo + step < n && key_at(lo + step) < key) {
          last_below = lo + step;
          step <<= 1;
        }
        x = last_below + 1;
        y = std::min(lo + step, static_cast<size_t>(n));
      } else {
        x = lo + 1;
        y = n;
      }
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (key_at(mid) < key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      lo = x;
    }
    if (lo < n && key_at(lo) == key) {
      (*out)[idx] = DecodeU64(base + lo * kEntrySize + 8);
      ++*found_count;
    }
  }
  return Status::OK();
}

Status BTreeLeaf::DecodeFrom(std::span<const uint8_t> block, BTreeLeaf* out) {
  if (block.size() < kLeafHeader || block[0] != kLeafType) {
    return Status::Corruption("not a leaf block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kLeafHeader + static_cast<size_t>(n) * kEntrySize > block.size()) {
    return Status::Corruption("leaf count exceeds block");
  }
  out->next = DecodeU32(block.data() + 5);
  out->entries.clear();
  out->entries.reserve(n);
  const uint8_t* cursor = block.data() + kLeafHeader;
  for (uint32_t i = 0; i < n; ++i) {
    out->entries.push_back(Entry{DecodeU64(cursor), DecodeU64(cursor + 8)});
    cursor += kEntrySize;
  }
  return Status::OK();
}

size_t BTreeInner::CapacityFor(size_t node_size) {
  // n separators need n*8 + (n+1)*4 bytes after the header.
  return (node_size - kInnerHeader - 4) / 12;
}

Status BTreeInner::EncodeTo(size_t node_size,
                            std::vector<uint8_t>* out) const {
  if (keys.size() > CapacityFor(node_size) ||
      children.size() != keys.size() + 1) {
    return Status::ResourceExhausted("inner overflow or malformed");
  }
  out->resize(node_size);
  return EncodeInto(*out);
}

Status BTreeInner::EncodeInto(std::span<uint8_t> block) const {
  if (keys.size() > CapacityFor(block.size()) ||
      children.size() != keys.size() + 1) {
    return Status::ResourceExhausted("inner overflow or malformed");
  }
  std::memset(block.data(), 0, block.size());
  block[0] = kInnerType;
  EncodeU32(static_cast<uint32_t>(keys.size()), block.data() + 1);
  uint8_t* cursor = block.data() + kInnerHeader;
  for (PageId child : children) {
    EncodeU32(child, cursor);
    cursor += 4;
  }
  for (Key key : keys) {
    EncodeU64(key, cursor);
    cursor += 8;
  }
  return Status::OK();
}

Status BTreeInner::ChildForKey(std::span<const uint8_t> block, Key key,
                               PageId* child, size_t* index) {
  if (block.size() < kInnerHeader || block[0] != kInnerType) {
    return Status::Corruption("not an inner block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kInnerHeader + (static_cast<size_t>(n) + 1) * 4 +
          static_cast<size_t>(n) * 8 >
      block.size()) {
    return Status::Corruption("inner count exceeds block");
  }
  // upper_bound over the separators, decoded lazily in place.
  const uint8_t* keys_base = block.data() + kInnerHeader + (n + 1) * 4;
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (DecodeU64(keys_base + mid * 8) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *child = DecodeU32(block.data() + kInnerHeader + lo * 4);
  if (index != nullptr) *index = lo;
  return Status::OK();
}

Status BTreeInner::PartitionBatch(
    std::span<const uint8_t> block,
    std::span<const std::pair<Key, uint32_t>> batch,
    std::vector<ChildRange>* parts) {
  parts->clear();
  if (block.size() < kInnerHeader || block[0] != kInnerType) {
    return Status::Corruption("not an inner block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kInnerHeader + (static_cast<size_t>(n) + 1) * 4 +
          static_cast<size_t>(n) * 8 >
      block.size()) {
    return Status::Corruption("inner count exceeds block");
  }
  const uint8_t* children_base = block.data() + kInnerHeader;
  const uint8_t* keys_base = children_base + (n + 1) * 4;
  auto sep_at = [&](size_t i) { return DecodeU64(keys_base + i * 8); };
  // Child index for a key is the count of separators <= it. Ascending keys
  // make that count monotone, so the walk gallops right from where the
  // previous key landed instead of bisecting all separators again.
  size_t p = 0;  // Separators [0, p) are <= every key routed so far.
  size_t i = 0;
  bool first = true;
  while (i < batch.size()) {
    Key key = batch[i].first;
    if (first) {
      // The first key bisects all separators (it can land anywhere).
      size_t x = 0;
      size_t y = n;
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (sep_at(mid) <= key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      p = x;
      first = false;
    } else if (p < n && sep_at(p) <= key) {
      // Later keys gallop right from where the previous key landed.
      size_t last_le = p;  // Greatest probed slot with separator <= key.
      size_t step = 1;
      while (p + step < n && sep_at(p + step) <= key) {
        last_le = p + step;
        step <<= 1;
      }
      size_t x = last_le + 1;
      size_t y = std::min(p + step, static_cast<size_t>(n));
      while (x < y) {
        size_t mid = x + (y - x) / 2;
        if (sep_at(mid) <= key) {
          x = mid + 1;
        } else {
          y = mid;
        }
      }
      p = x;
    }
    // Everything below the next separator shares child p.
    size_t j = i + 1;
    if (p == n) {
      j = batch.size();
    } else {
      Key bound = sep_at(p);
      while (j < batch.size() && batch[j].first < bound) ++j;
    }
    parts->push_back({DecodeU32(children_base + p * 4),
                      static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
    i = j;
  }
  return Status::OK();
}

Status BTreeInner::DecodeFrom(std::span<const uint8_t> block,
                              BTreeInner* out) {
  if (block.size() < kInnerHeader || block[0] != kInnerType) {
    return Status::Corruption("not an inner block");
  }
  uint32_t n = DecodeU32(block.data() + 1);
  if (kInnerHeader + (static_cast<size_t>(n) + 1) * 4 +
          static_cast<size_t>(n) * 8 >
      block.size()) {
    return Status::Corruption("inner count exceeds block");
  }
  out->children.clear();
  out->children.reserve(n + 1);
  out->keys.clear();
  out->keys.reserve(n);
  const uint8_t* cursor = block.data() + kInnerHeader;
  for (uint32_t i = 0; i <= n; ++i) {
    out->children.push_back(DecodeU32(cursor));
    cursor += 4;
  }
  for (uint32_t i = 0; i < n; ++i) {
    out->keys.push_back(DecodeU64(cursor));
    cursor += 8;
  }
  return Status::OK();
}

size_t BTreeInner::ChildIndexFor(Key key) const {
  // Separator i is the smallest key of child i+1.
  auto it = std::upper_bound(keys.begin(), keys.end(), key);
  return static_cast<size_t>(it - keys.begin());
}

bool IsLeafBlock(std::span<const uint8_t> block) {
  return !block.empty() && block[0] == kLeafType;
}

}  // namespace rum

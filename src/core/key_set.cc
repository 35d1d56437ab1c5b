#include "core/key_set.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace rum {

bool KeySet::erase(Key key) {
  if (key == kEmptySlot) return std::exchange(has_empty_key_, false);
  if (slots_.empty()) return false;
  size_t hole = Find(key);
  if (slots_[hole] != key) return false;
  // Backward shift: walk the rest of the probe run and pull back every key
  // whose home does not lie cyclically in (hole, j], i.e. every key the
  // hole would otherwise cut off from its home.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j] != kEmptySlot;
       j = (j + 1) & mask) {
    size_t home = Home(slots_[j]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kEmptySlot;
  --stored_;
  return true;
}

void KeySet::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  stored_ = 0;
  has_empty_key_ = false;
}

void KeySet::reserve(size_t n) {
  size_t capacity = std::bit_ceil(std::max(2 * n, kMinCapacity));
  if (capacity > slots_.size()) Rehash(capacity);
}

void KeySet::Rehash(size_t capacity) {
  std::vector<Key> old(capacity, kEmptySlot);
  old.swap(slots_);
  for (Key key : old) {
    if (key != kEmptySlot) slots_[Find(key)] = key;
  }
}

}  // namespace rum

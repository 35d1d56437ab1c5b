#ifndef RUMLAB_CORE_KEY_SET_H_
#define RUMLAB_CORE_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace rum {

/// A flat set of keys: open addressing with linear probing over one array.
///
/// It exists for simulator-side bookkeeping -- the exact live-key count
/// behind size() and the stats() base/aux space split -- and is never
/// charged to a RUM counter: it models no part of the access method. Flat
/// because a node-based std::unordered_set pays one allocation per key, a
/// pointer chase per probe and a free per node at teardown, which dominated
/// bulk loads of millions of keys.
///
/// Design:
///  - power-of-two capacity, load kept at or below 1/2, home slot from a
///    splitmix64 mix of the key (so dense or strided keys spread out);
///  - erase shifts the rest of the probe run back, so there are no
///    tombstones for later probes to walk over;
///  - kEmptySlot marks a free slot; the real key of that value lives in a
///    flag beside the array.
///
/// Not thread-safe; the owning method's own locking covers it.
class KeySet {
 public:
  /// Slot value meaning "free". The key with this value is still storable.
  static constexpr Key kEmptySlot = kMaxKey;

  /// Adds `key`; false if it was already present.
  bool insert(Key key) {
    if (key == kEmptySlot) return !std::exchange(has_empty_key_, true);
    if (!slots_.empty()) {
      size_t i = Find(key);
      if (slots_[i] == key) return false;
      if (2 * (stored_ + 1) <= slots_.size()) {
        slots_[i] = key;
        ++stored_;
        return true;
      }
    }
    Rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    slots_[Find(key)] = key;
    ++stored_;
    return true;
  }

  /// Removes `key`; false if it was absent.
  bool erase(Key key);

  bool contains(Key key) const {
    if (key == kEmptySlot) return has_empty_key_;
    return !slots_.empty() && slots_[Find(key)] == key;
  }

  size_t size() const { return stored_ + (has_empty_key_ ? 1 : 0); }

  /// Removes every key; keeps the array.
  void clear();

  /// Sizes the array so `n` keys fit without a rehash.
  void reserve(size_t n);

  /// Slots in the array: 0 before the first insert or reserve (exposed for
  /// tests).
  size_t capacity() const { return slots_.size(); }

  /// Home slot of `key` in an array of `capacity` slots, a power of two
  /// (exposed for tests that build clustered probe runs).
  static size_t HomeSlot(Key key, size_t capacity) {
    return static_cast<size_t>(MixHash(key)) & (capacity - 1);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Home(Key key) const { return HomeSlot(key, slots_.size()); }

  /// Slot holding `key`, or the free slot that ends its probe run.
  /// Requires a non-empty array and key != kEmptySlot.
  size_t Find(Key key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key);
    while (slots_[i] != key && slots_[i] != kEmptySlot) i = (i + 1) & mask;
    return i;
  }

  /// Moves every stored key into a fresh array of `capacity` slots.
  void Rehash(size_t capacity);

  std::vector<Key> slots_;  // Empty or a power of two long.
  size_t stored_ = 0;       // Keys in slots_ (excludes kEmptySlot's flag).
  bool has_empty_key_ = false;
};

}  // namespace rum

#endif  // RUMLAB_CORE_KEY_SET_H_

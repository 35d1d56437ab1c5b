#ifndef RUMLAB_CORE_TYPES_H_
#define RUMLAB_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace rum {

/// Keys are fixed-width 64-bit unsigned integers, matching the paper's model
/// of "a dataset consisting of N fixed-sized elements".
using Key = uint64_t;

/// Values are fixed-width 64-bit opaque payloads.
using Value = uint64_t;

/// A key/value pair as stored by every access method.
struct Entry {
  Key key = 0;
  Value value = 0;

  friend bool operator==(const Entry& a, const Entry& b) {
    return a.key == b.key && a.value == b.value;
  }
  friend bool operator<(const Entry& a, const Entry& b) {
    return a.key < b.key;
  }
};

/// Physical size of one entry on any simulated medium: 8-byte key plus
/// 8-byte value. All space/IO accounting is expressed in real bytes of this
/// representation.
inline constexpr size_t kEntrySize = sizeof(Key) + sizeof(Value);

/// Sentinel key values.
inline constexpr Key kMinKey = 0;
inline constexpr Key kMaxKey = std::numeric_limits<Key>::max();

/// Stable 64-bit key mix (splitmix64): shared by every sketch, the hash
/// index and the simulator's KeySet.
inline uint64_t MixHash(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Identifies a page on a simulated block device.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

}  // namespace rum

#endif  // RUMLAB_CORE_TYPES_H_

#ifndef RUMLAB_METHODS_BTREE_BTREE_NODE_H_
#define RUMLAB_METHODS_BTREE_BTREE_NODE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace rum {

/// Serialized forms of B+-Tree nodes.
///
/// Leaf page layout:
///   [0]     node type (0 = leaf)
///   [1,5)   uint32 entry count
///   [5,9)   uint32 next-leaf page id (kInvalidPageId at the tail)
///   [9,...) count x { uint64 key, uint64 value }
///
/// Inner page layout:
///   [0]     node type (1 = inner)
///   [1,5)   uint32 separator count `n`
///   [5,...) (n+1) x uint32 child page ids, then n x uint64 separator keys
///
/// Child i holds keys < separator i; child n holds the rest (separators are
/// lower bounds of the following child: keys in child i+1 are >= key i).
struct BTreeLeaf {
  /// Wire-format facts of the leaf layout above, shared with the
  /// interleaved leaf search in btree.cc.
  static constexpr uint8_t kTypeByte = 0;
  static constexpr size_t kHeaderBytes = 1 + 4 + 4;

  std::vector<Entry> entries;  // Sorted by key.
  PageId next = kInvalidPageId;

  /// Max entries in a leaf of `node_size` bytes.
  static size_t CapacityFor(size_t node_size);
  Status EncodeTo(size_t node_size, std::vector<uint8_t>* out) const;
  /// Encodes in place into `block` (e.g. a pinned page view), zero-filling
  /// the remainder.
  Status EncodeInto(std::span<uint8_t> block) const;
  static Status DecodeFrom(std::span<const uint8_t> block, BTreeLeaf* out);

  /// Zero-copy point lookup straight off an encoded leaf block: binary
  /// search without materializing the entries. Sets `*found` and, when
  /// found, `*value`.
  static Status FindInBlock(std::span<const uint8_t> block, Key key,
                            Value* value, bool* found);

  /// Lower-bound search straight off an encoded leaf block: validates the
  /// header as DecodeFrom does, then sets `*count` to the entry count,
  /// `*slot` to the first slot whose key is >= `key`, and `*found` when
  /// that slot holds `key`.
  static Status LowerBoundInBlock(std::span<const uint8_t> block, Key key,
                                  size_t* count, size_t* slot, bool* found);

  /// In-place edits of an encoded leaf block holding `count` entries. Each
  /// leaves exactly the bytes EncodeInto writes for the edited entry list,
  /// given a block whose bytes past the entries are zero (as EncodeInto
  /// leaves them). PutInBlock writes `e` at `slot`: over the entry there
  /// when `replace`, else after shifting slots [slot, count) right by one
  /// (the caller checks count < CapacityFor). EraseInBlock removes the
  /// entry at `slot`, shifting the rest left and zeroing the vacated slot.
  static void PutInBlock(std::span<uint8_t> block, size_t count, size_t slot,
                         Entry e, bool replace);
  static void EraseInBlock(std::span<uint8_t> block, size_t count,
                           size_t slot);

  /// Batched zero-copy lookups for an ascending (key, output index) batch:
  /// validates the block once, then resolves each key with a galloping
  /// lower-bound search that resumes from the previous key's slot, writing
  /// found values into `out` at the batch's output indices. `*found_count`
  /// receives the number of keys found (they all cost one logical entry
  /// read each, charged by the caller). Finds exactly the entries that
  /// per-key FindInBlock calls would.
  static Status MultiFindInBlock(std::span<const uint8_t> block,
                                 std::span<const std::pair<Key, uint32_t>> batch,
                                 std::vector<std::optional<Value>>* out,
                                 size_t* found_count);
};

struct BTreeInner {
  std::vector<Key> keys;         // n separators, sorted.
  std::vector<PageId> children;  // n + 1 children.

  /// Max separators in an inner node of `node_size` bytes.
  static size_t CapacityFor(size_t node_size);
  Status EncodeTo(size_t node_size, std::vector<uint8_t>* out) const;
  /// Encodes in place into `block`, zero-filling the remainder.
  Status EncodeInto(std::span<uint8_t> block) const;
  static Status DecodeFrom(std::span<const uint8_t> block, BTreeInner* out);

  /// Index of the child to descend into for `key`.
  size_t ChildIndexFor(Key key) const;

  /// Zero-copy descent step straight off an encoded inner block: binary
  /// search of the separators without materializing the node. `index`
  /// (optional) receives the child slot taken.
  static Status ChildForKey(std::span<const uint8_t> block, Key key,
                            PageId* child, size_t* index = nullptr);

  /// A contiguous slice of an ascending batch routed to one child.
  struct ChildRange {
    PageId child;
    uint32_t begin;
    uint32_t end;
  };

  /// Batched descent step for an ascending (key, output index) batch:
  /// validates the block once, then routes every key with a galloping
  /// separator walk that resumes where the previous key landed, appending
  /// one ChildRange per distinct child to `parts` (cleared first). Routes
  /// each key to exactly the child per-key ChildForKey would pick.
  static Status PartitionBatch(std::span<const uint8_t> block,
                               std::span<const std::pair<Key, uint32_t>> batch,
                               std::vector<ChildRange>* parts);
};

/// Reads the node-type byte without a full decode.
bool IsLeafBlock(std::span<const uint8_t> block);

}  // namespace rum

#endif  // RUMLAB_METHODS_BTREE_BTREE_NODE_H_

// Structural tests for the B+-Tree beyond the generic contract: node
// codecs, height growth, tuning knobs, leaf-chain integrity.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "methods/btree/btree.h"
#include "methods/btree/btree_node.h"
#include "storage/block_device.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::SmallOptions;

TEST(BTreeNodeTest, LeafRoundTrip) {
  BTreeLeaf leaf;
  leaf.entries = {{1, 10}, {5, 50}, {9, 90}};
  leaf.next = 77;
  std::vector<uint8_t> block;
  ASSERT_TRUE(leaf.EncodeTo(512, &block).ok());
  EXPECT_TRUE(IsLeafBlock(block));
  BTreeLeaf out;
  ASSERT_TRUE(BTreeLeaf::DecodeFrom(block, &out).ok());
  EXPECT_EQ(out.entries, leaf.entries);
  EXPECT_EQ(out.next, leaf.next);
}

TEST(BTreeNodeTest, InnerRoundTrip) {
  BTreeInner inner;
  inner.keys = {10, 20, 30};
  inner.children = {100, 101, 102, 103};
  std::vector<uint8_t> block;
  ASSERT_TRUE(inner.EncodeTo(512, &block).ok());
  EXPECT_FALSE(IsLeafBlock(block));
  BTreeInner out;
  ASSERT_TRUE(BTreeInner::DecodeFrom(block, &out).ok());
  EXPECT_EQ(out.keys, inner.keys);
  EXPECT_EQ(out.children, inner.children);
}

TEST(BTreeNodeTest, ChildIndexForRoutesBySeparator) {
  BTreeInner inner;
  inner.keys = {10, 20};
  inner.children = {0, 1, 2};
  EXPECT_EQ(inner.ChildIndexFor(5), 0u);
  EXPECT_EQ(inner.ChildIndexFor(10), 1u);  // Separator = lower bound right.
  EXPECT_EQ(inner.ChildIndexFor(15), 1u);
  EXPECT_EQ(inner.ChildIndexFor(20), 2u);
  EXPECT_EQ(inner.ChildIndexFor(99), 2u);
}

TEST(BTreeNodeTest, OverflowRejected) {
  BTreeLeaf leaf;
  leaf.entries.resize(BTreeLeaf::CapacityFor(512) + 1);
  std::vector<uint8_t> block;
  EXPECT_EQ(leaf.EncodeTo(512, &block).code(), Code::kResourceExhausted);
  BTreeInner inner;
  inner.keys.resize(BTreeInner::CapacityFor(512) + 1);
  inner.children.resize(inner.keys.size() + 1);
  EXPECT_EQ(inner.EncodeTo(512, &block).code(), Code::kResourceExhausted);
}

TEST(BTreeNodeTest, DecodeRejectsWrongType) {
  BTreeLeaf leaf;
  leaf.entries = {{1, 1}};
  std::vector<uint8_t> block;
  ASSERT_TRUE(leaf.EncodeTo(512, &block).ok());
  BTreeInner inner;
  EXPECT_EQ(BTreeInner::DecodeFrom(block, &inner).code(), Code::kCorruption);
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  Options options = SmallOptions();
  BTree tree(options);
  size_t leaf_cap = BTreeLeaf::CapacityFor(512);
  // Fill one leaf exactly: height 1.
  for (Key k = 0; k < leaf_cap; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  EXPECT_EQ(tree.height(), 1u);
  ASSERT_TRUE(tree.Insert(leaf_cap, 0).ok());
  EXPECT_EQ(tree.height(), 2u);
  for (Key k = leaf_cap + 1; k < 20000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k).ok());
  }
  // log_31(20000/31) ~ 3; allow 3..5.
  EXPECT_GE(tree.height(), 3u);
  EXPECT_LE(tree.height(), 5u);
}

TEST(BTreeTest, BulkLoadProducesShallowPackedTree) {
  Options options = SmallOptions();
  options.btree.bulk_fill = 1.0;
  BTree packed(options);
  std::vector<Entry> entries = MakeSortedEntries(10000);
  ASSERT_TRUE(packed.BulkLoad(entries).ok());

  options.btree.bulk_fill = 0.5;
  BTree loose(options);
  ASSERT_TRUE(loose.BulkLoad(entries).ok());

  // Half-full leaves double the base footprint.
  EXPECT_GT(loose.stats().space_base,
            packed.stats().space_base * 3 / 2);
  // Both answer queries identically.
  for (Key k = 0; k < 10000; k += 531) {
    ASSERT_EQ(packed.Get(k).value(), loose.Get(k).value());
  }
}

TEST(BTreeTest, LowBulkFillAbsorbsInsertsWithFewerSplits) {
  std::vector<Entry> entries = MakeSortedEntries(5000, 0, 2);
  Options options = SmallOptions();
  options.btree.bulk_fill = 1.0;
  BTree packed(options);
  ASSERT_TRUE(packed.BulkLoad(entries).ok());
  options.btree.bulk_fill = 0.6;
  BTree loose(options);
  ASSERT_TRUE(loose.BulkLoad(entries).ok());

  packed.ResetStats();
  loose.ResetStats();
  // Insert into the odd gaps: packed splits constantly, loose absorbs.
  Rng rng(3);
  for (int i = 0; i < 1500; ++i) {
    Key k = rng.NextBelow(5000) * 2 + 1;
    ASSERT_TRUE(packed.Insert(k, 1).ok());
    ASSERT_TRUE(loose.Insert(k, 1).ok());
  }
  EXPECT_LT(loose.stats().total_bytes_written(),
            packed.stats().total_bytes_written());
}

TEST(BTreeTest, NodeSizeKnobTradesReadBlocksForWriteBytes) {
  std::vector<Entry> entries = MakeSortedEntries(20000);
  Options small = SmallOptions();
  small.btree.node_size = 512;
  Options large = SmallOptions();
  large.btree.node_size = 8192;

  BTree small_tree(small);
  BTree large_tree(large);
  ASSERT_TRUE(small_tree.BulkLoad(entries).ok());
  ASSERT_TRUE(large_tree.BulkLoad(entries).ok());
  EXPECT_GT(small_tree.height(), large_tree.height());

  small_tree.ResetStats();
  large_tree.ResetStats();
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Key k = rng.NextBelow(20000);
    ASSERT_TRUE(small_tree.Get(k).ok());
    ASSERT_TRUE(large_tree.Get(k).ok());
  }
  // Big nodes: fewer blocks but more bytes per probe.
  EXPECT_LE(large_tree.stats().blocks_read, small_tree.stats().blocks_read);
  EXPECT_GT(large_tree.stats().total_bytes_read(),
            small_tree.stats().total_bytes_read());
}

TEST(BTreeTest, LeafChainSurvivesRandomDeletes) {
  Options options = SmallOptions();
  BTree tree(options);
  std::vector<Entry> entries = MakeSortedEntries(4000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  Rng rng(11);
  std::vector<bool> alive(4000, true);
  for (int i = 0; i < 3000; ++i) {
    Key k = rng.NextBelow(4000);
    ASSERT_TRUE(tree.Delete(k).ok());
    alive[k] = false;
    if (i % 500 == 0) {
      // A full scan must see exactly the live keys, in order.
      std::vector<Entry> scan;
      ASSERT_TRUE(tree.Scan(0, 4000, &scan).ok());
      size_t expected = 0;
      for (bool a : alive) expected += a ? 1 : 0;
      ASSERT_EQ(scan.size(), expected) << "after " << i << " deletes";
      for (size_t j = 1; j < scan.size(); ++j) {
        ASSERT_LT(scan[j - 1].key, scan[j].key);
      }
    }
  }
}

TEST(BTreeTest, SplitFractionNearOneFavorsSequentialInserts) {
  Options seq = SmallOptions();
  seq.btree.split_fraction = 0.9;  // Leave the left node nearly full.
  Options mid = SmallOptions();
  mid.btree.split_fraction = 0.5;

  BTree seq_tree(seq);
  BTree mid_tree(mid);
  for (Key k = 0; k < 10000; ++k) {
    ASSERT_TRUE(seq_tree.Insert(k, k).ok());
    ASSERT_TRUE(mid_tree.Insert(k, k).ok());
  }
  // Sequential fills: high split fraction packs leaves tighter.
  EXPECT_LT(seq_tree.stats().space_base, mid_tree.stats().space_base);
}

TEST(BTreeTest, InnerAndLeafSpaceSplitIsTagged) {
  Options options = SmallOptions();
  BTree tree(options);
  std::vector<Entry> entries = MakeSortedEntries(10000);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  CounterSnapshot snap = tree.stats();
  EXPECT_GT(snap.space_base, 0u);  // Leaves.
  EXPECT_GT(snap.space_aux, 0u);   // Inner nodes.
  EXPECT_LT(snap.space_aux, snap.space_base);  // Fanout keeps inners small.
}

// The pinned path edits a leaf in place (entry shift under a read pin plus
// a write pin of the same page) unless it splits or empties; the copy path
// decodes and re-encodes every touched leaf. The same seeded stream on
// both, each over its own BlockDevice, must leave every live page
// byte-identical and every RUM counter equal -- after a leaf fills from
// capacity-1 in place, splits at capacity, and empties from one entry.
TEST(BTreeTest, InPlaceLeafEditsLeaveCopyPathPageImages) {
  struct Side {
    RumCounters device_counters;
    BlockDevice device;
    BTree tree;
    static Options With(bool pinned) {
      Options options = SmallOptions();
      options.storage.pinned_pages = pinned;
      return options;
    }
    explicit Side(bool pinned)
        : device(512, &device_counters), tree(With(pinned), &device) {}
  };
  Side copy(false);
  Side pinned(true);
  auto expect_same = [&] {
    ASSERT_EQ(copy.device.live_pages(), pinned.device.live_pages());
    size_t seen = 0;
    for (PageId id = 0; seen < copy.device.live_pages(); ++id) {
      ASSERT_LT(id, PageId{1} << 20) << "live pages not found";
      const std::vector<uint8_t>* a = copy.device.page_unaccounted(id);
      const std::vector<uint8_t>* b = pinned.device.page_unaccounted(id);
      ASSERT_EQ(a == nullptr, b == nullptr) << "page " << id;
      if (a == nullptr) continue;
      ++seen;
      ASSERT_TRUE(*a == *b) << "page " << id << " bytes differ";
    }
    ASSERT_EQ(copy.device_counters.snapshot().ToString(),
              pinned.device_counters.snapshot().ToString());
    CounterSnapshot c = copy.tree.stats();
    CounterSnapshot p = pinned.tree.stats();
    ASSERT_EQ(c.ToString(), p.ToString());
    ASSERT_EQ(c.inserts, p.inserts);
    ASSERT_EQ(c.updates, p.updates);
    ASSERT_EQ(c.deletes, p.deletes);
    ASSERT_EQ(copy.tree.size(), pinned.tree.size());
    ASSERT_EQ(copy.tree.height(), pinned.tree.height());
  };
  auto both = [&](auto op) {
    ASSERT_TRUE(op(copy.tree).ok());
    ASSERT_TRUE(op(pinned.tree).ok());
  };
  auto insert = [&](Key k, Value v) {
    both([&](BTree& t) { return t.Insert(k, v); });
  };

  // One leaf at capacity-1, filled in place, updated while full, split.
  const Key cap = BTreeLeaf::CapacityFor(512);
  for (Key k = 0; k + 1 < cap; ++k) insert(2 * k, k);
  ASSERT_EQ(pinned.tree.size(), cap - 1);
  insert(1, 100);  // capacity-1 -> capacity, in place.
  both([](BTree& t) { return t.Update(1, 101); });  // Full leaf, in place.
  ASSERT_EQ(pinned.tree.height(), 1u);
  ASSERT_EQ(pinned.device.live_pages(), 1u);
  ASSERT_NO_FATAL_FAILURE(expect_same());
  insert(3, 102);  // At capacity: split.
  ASSERT_EQ(pinned.tree.height(), 2u);
  ASSERT_EQ(pinned.device.live_pages(), 3u);
  ASSERT_NO_FATAL_FAILURE(expect_same());

  // Seeded mix over a range wide enough to grow a three-level tree.
  std::set<Key> live;
  for (Key k = 0; k + 1 < cap; ++k) live.insert(2 * k);
  live.insert(1);
  live.insert(3);
  Rng rng(0x1EAF);
  constexpr Key kRange = 2048;
  for (int i = 0; i < 6000; ++i) {
    Key key = rng.NextBelow(kRange);
    uint64_t dice = rng.NextBelow(100);
    if (dice < 45) {
      insert(key, rng.Next());
      live.insert(key);
    } else if (dice < 65) {
      Value v = rng.Next();
      both([&](BTree& t) { return t.Update(key, v); });
      live.insert(key);
    } else {
      both([&](BTree& t) { return t.Delete(key); });
      live.erase(key);
    }
    if (i % 50 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_same()) << "op " << i;
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_same());
  EXPECT_GE(pinned.tree.height(), 3u);
  ASSERT_EQ(pinned.tree.size(), live.size());

  // Drain in a shuffled order: every leaf ends by emptying from one entry.
  std::vector<Key> order(live.begin(), live.end());
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    both([&](BTree& t) { return t.Delete(order[i]); });
    if (i % 50 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_same()) << "drain " << i;
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_same());
  EXPECT_EQ(pinned.tree.size(), 0u);
  EXPECT_EQ(pinned.device.live_pages(), 0u);
}

}  // namespace
}  // namespace rum

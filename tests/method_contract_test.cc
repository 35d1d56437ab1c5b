// Differential contract tests: every access method must behave exactly like
// the reference model under bulk loads and long random operation sequences.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/access_method.h"
#include "methods/factory.h"
#include "tests/testing_util.h"
#include "workload/distribution.h"

namespace rum {
namespace {

using testing_util::GetMatchesReference;
using testing_util::ReferenceModel;
using testing_util::ScanMatchesReference;
using testing_util::SmallOptions;

// gtest names may not contain '-'.
std::string MethodTestName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class MethodContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    method_ = MakeAccessMethod(GetParam(), SmallOptions());
    ASSERT_NE(method_, nullptr) << "unknown method " << GetParam();
  }

  std::unique_ptr<AccessMethod> method_;
  ReferenceModel reference_;

  void CheckGet(Key key) {
    ASSERT_TRUE(GetMatchesReference(method_.get(), reference_, key));
  }

  void CheckScan(Key lo, Key hi) {
    ASSERT_TRUE(ScanMatchesReference(method_.get(), reference_, lo, hi));
  }
};

TEST_P(MethodContractTest, EmptyStructure) {
  EXPECT_EQ(method_->size(), 0u);
  Result<Value> got = method_->Get(123);
  EXPECT_TRUE(got.status().IsNotFound());
  std::vector<Entry> scan;
  EXPECT_TRUE(method_->Scan(0, 1000, &scan).ok());
  EXPECT_TRUE(scan.empty());
  // Deleting from empty is OK (idempotent).
  EXPECT_TRUE(method_->Delete(7).ok());
}

TEST_P(MethodContractTest, ScanRejectsInvertedRange) {
  std::vector<Entry> scan;
  EXPECT_EQ(method_->Scan(10, 5, &scan).code(), Code::kInvalidArgument);
}

TEST_P(MethodContractTest, BulkLoadAndPointQueries) {
  const size_t kN = 3000;
  std::vector<Entry> entries = MakeSortedEntries(kN, /*first=*/5,
                                                 /*stride=*/7);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) {
    reference_.Insert(e.key, e.value);
  }
  EXPECT_EQ(method_->size(), kN);
  // Every loaded key, plus misses between the strides.
  for (size_t i = 0; i < kN; i += 17) {
    CheckGet(entries[i].key);
    CheckGet(entries[i].key + 1);  // Never a multiple of the stride + 5.
  }
  CheckGet(0);
  CheckGet(entries.back().key + 7);
}

TEST_P(MethodContractTest, BulkLoadRejectsUnsortedInput) {
  std::vector<Entry> bad = {{10, 1}, {5, 2}};
  EXPECT_EQ(method_->BulkLoad(bad).code(), Code::kInvalidArgument);
  std::vector<Entry> dup = {{10, 1}, {10, 2}};
  EXPECT_EQ(method_->BulkLoad(dup).code(), Code::kInvalidArgument);
  // A rejected load leaves the structure empty, so a valid one still runs.
  EXPECT_EQ(method_->size(), 0u);
  std::vector<Entry> good = {{5, 2}, {10, 1}};
  ASSERT_TRUE(method_->BulkLoad(good).ok());
  for (const Entry& e : good) reference_.Insert(e.key, e.value);
  EXPECT_EQ(method_->size(), good.size());
  CheckScan(0, 20);
}

TEST_P(MethodContractTest, BulkLoadRejectsNonEmptyTarget) {
  ASSERT_TRUE(method_->Insert(1, 1).ok());
  std::vector<Entry> entries = MakeSortedEntries(10);
  EXPECT_EQ(method_->BulkLoad(entries).code(), Code::kInvalidArgument);
}

TEST_P(MethodContractTest, BulkLoadThenScans) {
  const size_t kN = 2000;
  std::vector<Entry> entries = MakeSortedEntries(kN, 0, 3);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) reference_.Insert(e.key, e.value);
  CheckScan(0, 50);
  CheckScan(100, 400);
  CheckScan(entries.back().key - 10, entries.back().key + 100);
  CheckScan(0, entries.back().key);
  CheckScan(7000, 7000);  // Empty interior range (stride gap).
}

TEST_P(MethodContractTest, InsertIsUpsert) {
  ASSERT_TRUE(method_->Insert(42, 1).ok());
  ASSERT_TRUE(method_->Insert(42, 2).ok());
  EXPECT_EQ(method_->size(), 1u);
  Result<Value> got = method_->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 2u);
}

TEST_P(MethodContractTest, DeleteThenReinsert) {
  ASSERT_TRUE(method_->Insert(7, 70).ok());
  ASSERT_TRUE(method_->Delete(7).ok());
  EXPECT_TRUE(method_->Get(7).status().IsNotFound());
  EXPECT_EQ(method_->size(), 0u);
  ASSERT_TRUE(method_->Insert(7, 71).ok());
  Result<Value> got = method_->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 71u);
}

TEST_P(MethodContractTest, RandomizedOperationsMatchReference) {
  Rng rng(0xC0FFEE);
  const Key kRange = 1u << 12;
  const int kOps = 6000;
  for (int i = 0; i < kOps; ++i) {
    Key key = rng.NextBelow(kRange);
    uint64_t dice = rng.NextBelow(100);
    if (dice < 45) {
      Value v = rng.Next();
      ASSERT_TRUE(method_->Insert(key, v).ok());
      reference_.Insert(key, v);
    } else if (dice < 60) {
      Value v = rng.Next();
      ASSERT_TRUE(method_->Update(key, v).ok());
      reference_.Update(key, v);
    } else if (dice < 75) {
      ASSERT_TRUE(method_->Delete(key).ok());
      reference_.Delete(key);
    } else if (dice < 97) {
      CheckGet(key);
    } else {
      Key hi = key + rng.NextBelow(200);
      CheckScan(key, hi);
    }
    if (i % 997 == 0) {
      ASSERT_EQ(method_->size(), reference_.size())
          << method_->name() << " after op " << i;
    }
  }
  // Final full validation.
  ASSERT_EQ(method_->size(), reference_.size());
  CheckScan(0, kRange);
}

TEST_P(MethodContractTest, FlushPreservesContents) {
  Rng rng(0xFACE);
  const Key kRange = 1u << 10;
  for (int i = 0; i < 500; ++i) {
    Key key = rng.NextBelow(kRange);
    Value v = rng.Next();
    ASSERT_TRUE(method_->Insert(key, v).ok());
    reference_.Insert(key, v);
  }
  ASSERT_TRUE(method_->Flush().ok());
  CheckScan(0, kRange);
  for (Key k = 0; k < kRange; k += 37) CheckGet(k);
}

TEST_P(MethodContractTest, SequentialInsertThenFullScan) {
  // Ascending inserts stress split-at-tail paths.
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(method_->Insert(k, ValueFor(k)).ok());
    reference_.Insert(k, ValueFor(k));
  }
  CheckScan(0, 2000);
  EXPECT_EQ(method_->size(), 2000u);
}

TEST_P(MethodContractTest, DescendingInsertThenFullScan) {
  for (Key k = 2000; k-- > 0;) {
    ASSERT_TRUE(method_->Insert(k, ValueFor(k)).ok());
    reference_.Insert(k, ValueFor(k));
  }
  CheckScan(0, 2000);
}

TEST_P(MethodContractTest, MassDeleteToEmpty) {
  const size_t kN = 1500;
  std::vector<Entry> entries = MakeSortedEntries(kN, 0, 2);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) reference_.Insert(e.key, e.value);
  // Delete in a scattered order.
  Rng rng(0xDEAD);
  std::vector<Key> keys;
  keys.reserve(kN);
  for (const Entry& e : entries) keys.push_back(e.key);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(method_->Delete(keys[i]).ok()) << "delete " << keys[i];
    reference_.Delete(keys[i]);
    if (i % 250 == 0) {
      ASSERT_EQ(method_->size(), reference_.size()) << "after " << i;
    }
  }
  EXPECT_EQ(method_->size(), 0u);
  CheckScan(0, 4 * kN);
}

TEST_P(MethodContractTest, BoundaryKeysRoundTrip) {
  // The extreme ends of the key domain stress shift arithmetic, sentinel
  // handling, and +1/-1 range math. Methods with a bounded domain (the
  // direct-address array) may reject out-of-domain keys with kOutOfRange;
  // everything they accept must behave exactly.
  const Key kBoundary[] = {0, 1, 2, kMaxKey - 2, kMaxKey - 1, kMaxKey};
  std::set<Key> rejected;
  for (Key k : kBoundary) {
    Status s = method_->Insert(k, ValueFor(k));
    if (s.code() == Code::kOutOfRange) {
      rejected.insert(k);
      continue;
    }
    ASSERT_TRUE(s.ok()) << method_->name() << " key " << k;
    reference_.Insert(k, ValueFor(k));
  }
  for (Key k : kBoundary) {
    if (rejected.count(k) != 0) {
      // Out-of-domain keys must keep failing consistently.
      EXPECT_FALSE(method_->Get(k).ok());
      continue;
    }
    CheckGet(k);
  }
  CheckScan(0, 2);
  CheckScan(kMaxKey - 2, kMaxKey);
  CheckScan(0, kMaxKey);
  // Delete the edges and verify.
  for (Key k : {Key{0}, kMaxKey}) {
    Status s = method_->Delete(k);
    if (s.code() == Code::kOutOfRange) continue;
    ASSERT_TRUE(s.ok());
    reference_.Delete(k);
  }
  CheckScan(0, kMaxKey);
}

TEST_P(MethodContractTest, StatsAreSane) {
  const size_t kN = 1000;
  std::vector<Entry> entries = MakeSortedEntries(kN);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  ASSERT_TRUE(method_->Flush().ok());
  method_->ResetStats();
  for (Key k = 0; k < kN; k += 3) {
    ASSERT_TRUE(method_->Get(k).ok());
  }
  CounterSnapshot snap = method_->stats();
  EXPECT_GT(snap.total_bytes_read(), 0u) << method_->name();
  EXPECT_GT(snap.logical_bytes_read, 0u);
  // Read amplification can never be below 1: you must at least read what
  // you return.
  EXPECT_GE(snap.read_amplification(), 1.0) << method_->name();
  // Space: something is resident, and base data is accounted.
  EXPECT_GT(snap.total_space(), 0u) << method_->name();
  EXPECT_GT(snap.space_base, 0u) << method_->name();
  EXPECT_GE(snap.space_amplification(), 1.0) << method_->name();
  // Point queries were counted.
  EXPECT_EQ(snap.point_queries, (kN + 2) / 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodContractTest,
    ::testing::Values("btree", "hash", "zonemap", "lsm-leveled",
                      "lsm-tiered", "lsm-lazy", "lsm-hybrid", "lsm-compressed", "sorted-column", "unsorted-column",
                      "skiplist", "trie", "bitmap", "bitmap-delta",
                      "cracking", "stepped-merge", "bloom-zones", "imprints", "hot-cold", "pbt", "sparse-index", "absorbed-btree", "absorbed-bitmap",
                      "magic-array", "pure-log", "dense-array",
                      "sharded-btree", "sharded-hash", "sharded-skiplist",
                      "sharded-lsm-leveled"),
    MethodTestName);

// The methods whose size() comes from a simulator-side live-key set
// (KeySet): after a bulk load, every kind of churn that could desync that
// set from the data -- re-inserting live keys, deleting absent ones,
// delete-then-reinsert -- must leave size() and space_base exactly where the
// std::map oracle puts them. The absorber is the one exception on
// space_base: it reports its wrapped B-tree's base charge, which is whole
// leaf pages, so only its size() is held to the oracle.
class LiveKeyBookkeepingTest : public MethodContractTest {
 protected:
  void CheckLiveCount(const char* op, Key key) {
    ASSERT_EQ(method_->size(), reference_.size())
        << method_->name() << " after " << op << " " << key;
    if (GetParam() == "absorbed-btree") return;
    ASSERT_EQ(method_->stats().space_base, reference_.size() * kEntrySize)
        << method_->name() << " after " << op << " " << key;
  }
};

TEST_P(LiveKeyBookkeepingTest, ChurnAfterBulkLoadTracksOracleCount) {
  const size_t kN = 2000;
  std::vector<Entry> entries = MakeSortedEntries(kN, /*first=*/0,
                                                 /*stride=*/2);
  ASSERT_TRUE(method_->BulkLoad(entries).ok());
  for (const Entry& e : entries) reference_.Insert(e.key, e.value);
  ASSERT_NO_FATAL_FAILURE(CheckLiveCount("bulk load", 0));
  // Loaded keys are even; odd keys start absent.
  Rng rng(0x11FE);
  for (int i = 0; i < 3000; ++i) {
    Key key = rng.NextBelow(2 * kN + 64);
    Value v = rng.Next();
    switch (rng.NextBelow(4)) {
      case 0:  // Re-insert (or first insert): an upsert.
        ASSERT_TRUE(method_->Insert(key, v).ok());
        reference_.Insert(key, v);
        CheckLiveCount("insert", key);
        break;
      case 1:  // Delete of a key that is absent (odd) or live (even).
        ASSERT_TRUE(method_->Delete(key | 1).ok());
        reference_.Delete(key | 1);
        CheckLiveCount("delete", key | 1);
        break;
      case 2:  // Delete then re-insert the same key.
        ASSERT_TRUE(method_->Delete(key).ok());
        reference_.Delete(key);
        CheckLiveCount("delete", key);
        ASSERT_TRUE(method_->Insert(key, v).ok());
        reference_.Insert(key, v);
        CheckLiveCount("re-insert", key);
        break;
      default: {  // Re-insert a key known to be live.
        auto it = reference_.map().lower_bound(key);
        if (it == reference_.map().end()) it = reference_.map().begin();
        Key live = it->first;
        ASSERT_TRUE(method_->Insert(live, v).ok());
        reference_.Insert(live, v);
        CheckLiveCount("live re-insert", live);
        break;
      }
    }
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(method_->Flush().ok());
  ASSERT_NO_FATAL_FAILURE(CheckLiveCount("flush", 0));
  CheckScan(0, 2 * kN + 64);
}

INSTANTIATE_TEST_SUITE_P(
    LiveKeySetMethods, LiveKeyBookkeepingTest,
    ::testing::Values("lsm-leveled", "lsm-tiered", "stepped-merge", "pbt",
                      "hot-cold", "absorbed-btree", "cracking"),
    MethodTestName);

}  // namespace
}  // namespace rum

// Unit tests for the core layer: Status/Result, RUM counters, RumPoint,
// the KeySet differential tier and the SpinLock tier.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/counters.h"
#include "core/key_set.h"
#include "core/rum_point.h"
#include "core/spin_lock.h"
#include "core/status.h"
#include "workload/distribution.h"

namespace rum {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
  EXPECT_EQ(Status::Corruption().code(), Code::kCorruption);
  EXPECT_EQ(Status::InvalidArgument().code(), Code::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange().code(), Code::kOutOfRange);
  EXPECT_EQ(Status::NotSupported().code(), Code::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted().code(), Code::kResourceExhausted);
  EXPECT_EQ(Status::IOError().code(), Code::kIOError);
  EXPECT_EQ(Status::AlreadyExists().code(), Code::kAlreadyExists);
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::OK());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(CountersTest, AmplificationsComputeRatios) {
  RumCounters counters;
  counters.OnRead(DataClass::kBase, 100);
  counters.OnRead(DataClass::kAux, 60);
  counters.OnLogicalRead(40);
  counters.OnWrite(DataClass::kBase, 48);
  counters.OnWrite(DataClass::kAux, 16);
  counters.OnLogicalWrite(16);
  counters.SetSpace(DataClass::kBase, 1000);
  counters.SetSpace(DataClass::kAux, 500);

  const CounterSnapshot& snap = counters.snapshot();
  EXPECT_DOUBLE_EQ(snap.read_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(snap.write_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(snap.space_amplification(), 1.5);
  EXPECT_EQ(snap.total_bytes_read(), 160u);
  EXPECT_EQ(snap.total_bytes_written(), 64u);
  EXPECT_EQ(snap.total_space(), 1500u);
}

TEST(CountersTest, ZeroDenominatorsReturnZero) {
  CounterSnapshot snap;
  EXPECT_EQ(snap.read_amplification(), 0.0);
  EXPECT_EQ(snap.write_amplification(), 0.0);
  EXPECT_EQ(snap.space_amplification(), 0.0);
}

TEST(CountersTest, DeltaSubtractsTrafficKeepsSpace) {
  RumCounters counters;
  counters.OnRead(DataClass::kBase, 100);
  counters.OnLogicalRead(100);
  counters.OnPointQuery();
  CounterSnapshot before = counters.snapshot();
  counters.OnRead(DataClass::kBase, 60);
  counters.OnLogicalRead(20);
  counters.OnPointQuery();
  counters.SetSpace(DataClass::kBase, 777);
  CounterSnapshot delta = counters.snapshot() - before;
  EXPECT_EQ(delta.bytes_read_base, 60u);
  EXPECT_EQ(delta.logical_bytes_read, 20u);
  EXPECT_EQ(delta.point_queries, 1u);
  EXPECT_EQ(delta.space_base, 777u);  // Space is a level, not a delta.
}

TEST(CountersTest, ResetTrafficPreservesSpace) {
  RumCounters counters;
  counters.OnRead(DataClass::kAux, 10);
  counters.SetSpace(DataClass::kAux, 123);
  counters.ResetTraffic();
  EXPECT_EQ(counters.snapshot().bytes_read_aux, 0u);
  EXPECT_EQ(counters.snapshot().space_aux, 123u);
}

TEST(CountersTest, AdjustSpaceMovesBothWays) {
  RumCounters counters;
  counters.AdjustSpace(DataClass::kBase, 100);
  counters.AdjustSpace(DataClass::kBase, -40);
  EXPECT_EQ(counters.snapshot().space_base, 60u);
}

TEST(CountersTest, ReclassifyInsertAsUpdate) {
  RumCounters counters;
  counters.OnInsert();
  counters.ReclassifyInsertAsUpdate();
  EXPECT_EQ(counters.snapshot().inserts, 0u);
  EXPECT_EQ(counters.snapshot().updates, 1u);
  // No-op when there is no insert to rebook.
  counters.ReclassifyInsertAsUpdate();
  EXPECT_EQ(counters.snapshot().updates, 1u);
}

TEST(RumPointTest, PerfectPointSitsAtCentroid) {
  RumPoint p{1.0, 1.0, 1.0};
  double wr, wu, wm;
  p.BarycentricWeights(&wr, &wu, &wm);
  EXPECT_NEAR(wr, 1.0 / 3, 1e-9);
  EXPECT_NEAR(wu, 1.0 / 3, 1e-9);
  EXPECT_NEAR(wm, 1.0 / 3, 1e-9);
  EXPECT_EQ(p.Classify(), RumRegion::kBalanced);
  EXPECT_NEAR(p.triangle_x(), 0.5, 1e-9);
  EXPECT_NEAR(p.triangle_y(), 1.0 / 3, 1e-9);
}

TEST(RumPointTest, ReadOptimizedLeansToReadCorner) {
  // Cheap reads, expensive writes and space.
  RumPoint p{1.0, 50.0, 50.0};
  EXPECT_EQ(p.Classify(), RumRegion::kReadOptimized);
  EXPECT_GT(p.triangle_y(), 0.9);
}

TEST(RumPointTest, WriteOptimizedLeansToWriteCorner) {
  RumPoint p{50.0, 1.0, 50.0};
  EXPECT_EQ(p.Classify(), RumRegion::kWriteOptimized);
  EXPECT_LT(p.triangle_x(), 0.1);
}

TEST(RumPointTest, SpaceOptimizedLeansToSpaceCorner) {
  RumPoint p{50.0, 50.0, 1.0};
  EXPECT_EQ(p.Classify(), RumRegion::kSpaceOptimized);
  EXPECT_GT(p.triangle_x(), 0.9);
}

TEST(RumPointTest, SubUnitAmplificationsClampToOne) {
  CounterSnapshot snap;  // All zero: amplifications report 0.
  RumPoint p = RumPoint::FromSnapshot(snap);
  EXPECT_DOUBLE_EQ(p.read_overhead, 1.0);
  EXPECT_DOUBLE_EQ(p.update_overhead, 1.0);
  EXPECT_DOUBLE_EQ(p.memory_overhead, 1.0);
}

TEST(RumPointTest, TriangleDistanceIsMetricLike) {
  RumPoint read{1, 50, 50};
  RumPoint write{50, 1, 50};
  RumPoint mid{1, 1, 1};
  EXPECT_NEAR(RumPoint::TriangleDistance(read, read), 0.0, 1e-12);
  EXPECT_GT(RumPoint::TriangleDistance(read, write),
            RumPoint::TriangleDistance(read, mid));
}

TEST(RumPointTest, ToStringMentionsRegion) {
  RumPoint p{1.0, 50.0, 50.0};
  EXPECT_NE(p.ToString().find("read-optimized"), std::string::npos);
}

// ------------------------------------------------------------------ KeySet

// Keys whose home slot in a `capacity`-slot array is one of the last `span`
// slots: inserted together they form one probe run that wraps around the
// end of the array.
std::vector<Key> KeysHomedAtTail(size_t capacity, size_t span, size_t count) {
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < count; ++k) {
    if (KeySet::HomeSlot(k, capacity) >= capacity - span) keys.push_back(k);
  }
  return keys;
}

// Applies one op to both sets and checks they agree on its result and size.
void Apply(KeySet* set, std::unordered_set<Key>* oracle, uint64_t dice,
           Key key) {
  if (dice < 45) {
    ASSERT_EQ(set->insert(key), oracle->insert(key).second) << key;
  } else if (dice < 80) {
    ASSERT_EQ(set->erase(key), oracle->erase(key) == 1) << key;
  } else {
    ASSERT_EQ(set->contains(key), oracle->count(key) == 1) << key;
  }
  ASSERT_EQ(set->size(), oracle->size());
}

void ExpectSameMembers(const KeySet& set,
                       const std::unordered_set<Key>& oracle,
                       const std::vector<Key>& universe) {
  ASSERT_EQ(set.size(), oracle.size());
  for (Key k : universe) {
    ASSERT_EQ(set.contains(k), oracle.count(k) == 1) << k;
  }
}

TEST(KeySetTest, EmptySetAnswersWithoutAnArray) {
  KeySet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(KeySet::kEmptySlot));
  EXPECT_FALSE(set.erase(42));
  set.clear();
  EXPECT_EQ(set.capacity(), 0u);
}

TEST(KeySetTest, ReservedValueAndDomainEndsAreOrdinaryKeys) {
  const Key kEdges[] = {KeySet::kEmptySlot, kMaxKey, kMaxKey - 1, 0, 1};
  KeySet set;
  std::unordered_set<Key> oracle;
  for (Key k : kEdges) {
    EXPECT_EQ(set.insert(k), oracle.insert(k).second) << k;
    EXPECT_FALSE(set.insert(k)) << k;  // Second insert is a no-op.
  }
  EXPECT_EQ(set.size(), oracle.size());
  for (Key k : kEdges) EXPECT_TRUE(set.contains(k)) << k;
  EXPECT_TRUE(set.erase(KeySet::kEmptySlot));
  EXPECT_FALSE(set.contains(KeySet::kEmptySlot));
  EXPECT_FALSE(set.erase(KeySet::kEmptySlot));
  oracle.erase(KeySet::kEmptySlot);
  ExpectSameMembers(set, oracle, {kEdges, kEdges + 5});
  EXPECT_TRUE(set.erase(kMaxKey - 1));
  EXPECT_TRUE(set.erase(0));
  oracle.erase(kMaxKey - 1);
  oracle.erase(0);
  ExpectSameMembers(set, oracle, {kEdges, kEdges + 5});
  EXPECT_TRUE(set.insert(KeySet::kEmptySlot));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  for (Key k : kEdges) EXPECT_FALSE(set.contains(k)) << k;
}

TEST(KeySetTest, WrappedClusterSurvivesEveryMiddleErase) {
  // One probe run of 8 keys homed in the last 2 of 16 slots: it covers
  // slots 14, 15, 0, ..., 5. Erasing any one of them must backward-shift
  // the rest so every survivor stays reachable, for every erase position.
  const size_t kCapacity = 16;
  std::vector<Key> cluster = KeysHomedAtTail(kCapacity, 2, 8);
  for (size_t victim = 0; victim < cluster.size(); ++victim) {
    KeySet set;
    set.reserve(kCapacity / 2);
    ASSERT_EQ(set.capacity(), kCapacity);
    for (Key k : cluster) ASSERT_TRUE(set.insert(k));
    ASSERT_TRUE(set.erase(cluster[victim]));
    EXPECT_EQ(set.capacity(), kCapacity);  // No rehash hid the shift.
    for (size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_EQ(set.contains(cluster[i]), i != victim)
          << "victim " << victim << " key " << cluster[i];
    }
    // Erase the rest in an interleaved order, checking after each.
    std::unordered_set<Key> oracle(cluster.begin(), cluster.end());
    oracle.erase(cluster[victim]);
    for (size_t step = 0; step < cluster.size(); ++step) {
      Key k = cluster[(victim + 3 * step + 1) % cluster.size()];
      ASSERT_EQ(set.erase(k), oracle.erase(k) == 1);
      ExpectSameMembers(set, oracle, cluster);
    }
    EXPECT_EQ(set.size(), 0u);
  }
}

TEST(KeySetTest, ClusteredChurnMatchesUnorderedSet) {
  // 256 keys all homed in the last 8 of 2048 slots: one long run wrapping
  // the array end, probed, erased from the middle and refilled 1M times
  // without a rehash to reset it.
  const size_t kCapacity = 2048;
  std::vector<Key> pool = KeysHomedAtTail(kCapacity, 8, 256);
  KeySet set;
  set.reserve(kCapacity / 2);
  ASSERT_EQ(set.capacity(), kCapacity);
  std::unordered_set<Key> oracle;
  Rng rng(0x5E7);
  for (int i = 0; i < 1'000'000; ++i) {
    Apply(&set, &oracle, rng.NextBelow(100),
          pool[rng.NextBelow(pool.size())]);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(set.capacity(), kCapacity);
  ExpectSameMembers(set, oracle, pool);
}

TEST(KeySetTest, RandomOpsAcrossGrowthMatchUnorderedSet) {
  // Three key ranges, from dense churn to a range that keeps the set
  // growing, plus the domain ends mixed into every range. Starts empty,
  // so the large range takes the set through more than ten rehashes.
  const uint64_t kRanges[] = {64, 1 << 12, 1 << 20};
  const Key kEdges[] = {KeySet::kEmptySlot, kMaxKey - 1, 0};
  uint64_t seed = 1;
  for (uint64_t range : kRanges) {
    KeySet set;
    std::unordered_set<Key> oracle;
    Rng rng(seed++);
    size_t rehashes = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      uint64_t pick = rng.NextBelow(range + 3);
      Key key = pick < range ? pick * 0x9E3779B1ULL : kEdges[pick - range];
      size_t before = set.capacity();
      Apply(&set, &oracle, rng.NextBelow(100), key);
      if (HasFatalFailure()) return;
      if (set.capacity() != before) ++rehashes;
      ASSERT_LE(2 * set.size(), set.capacity() + 2);  // Load <= 1/2.
    }
    if (range == (1 << 20)) {
      EXPECT_GE(rehashes, 10u);
    }
    std::vector<Key> present(oracle.begin(), oracle.end());
    ExpectSameMembers(set, oracle, present);
  }
}

TEST(KeySetTest, ReserveThenFillNeverRehashes) {
  for (size_t n : {size_t{1}, size_t{8}, size_t{1000}, size_t{1} << 17}) {
    KeySet set;
    set.reserve(n);
    size_t capacity = set.capacity();
    EXPECT_GE(capacity, 2 * n);
    for (Key k = 0; k < n; ++k) ASSERT_TRUE(set.insert(k * 7919));
    EXPECT_EQ(set.capacity(), capacity) << n;
    EXPECT_EQ(set.size(), n);
    // A smaller reserve never shrinks the array.
    set.reserve(n / 2);
    EXPECT_EQ(set.capacity(), capacity);
    for (Key k = 0; k < n; ++k) ASSERT_TRUE(set.contains(k * 7919));
  }
}

TEST(KeySetTest, ClearKeepsTheArrayAndForgetsEveryKey) {
  KeySet set;
  std::vector<Key> keys;
  for (Key k = 0; k < 5000; ++k) keys.push_back(k * 3 + 1);
  keys.push_back(KeySet::kEmptySlot);
  for (Key k : keys) ASSERT_TRUE(set.insert(k));
  size_t capacity = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), capacity);
  for (Key k : keys) ASSERT_FALSE(set.contains(k));
  // Refill after clear: every insert is new again.
  for (Key k : keys) ASSERT_TRUE(set.insert(k));
  EXPECT_EQ(set.size(), keys.size());
  EXPECT_EQ(set.capacity(), capacity);
}

// SpinLock tier. This case is declared first so that, in a full run of
// this file, its first lock() and unlock() happen before the process has
// started any thread and take the plain single-threaded path. A lock taken there must still exclude a
// thread started while it is held, and be released on the atomic path.
TEST(SpinLockTest, TryLockFailsWhileHeld) {
  SpinLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());  // Not recursive.
  lock.unlock();
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
  lock.lock();
  bool other_got_it = true;
  std::thread other([&] { other_got_it = lock.try_lock(); });
  other.join();
  EXPECT_FALSE(other_got_it);
  lock.unlock();
  std::thread after([&] { other_got_it = lock.try_lock(); });
  after.join();
  EXPECT_TRUE(other_got_it);
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// The counter is a plain (non-atomic) integer, so a lock that let two
// holders in at once would lose increments -- and TSan, which runs this
// file, would flag the race.
TEST(SpinLockTest, FourThreadsCountExactlyUnderTheLock) {
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrements = 1'000'000;
  SpinLock lock;
  uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        std::lock_guard<SpinLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

// A waiter held past its spin budget must park (the lock word shows a
// parked waiter) and must be woken by unlock, not left asleep.
TEST(SpinLockTest, WaiterPastTheSpinBudgetParksThenWakesOnUnlock) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kPatience = std::chrono::seconds(20);
  SpinLock lock;
  std::atomic<bool> acquired{false};
  lock.lock();
  std::thread waiter([&] {
    std::lock_guard<SpinLock> guard(lock);
    acquired.store(true);
  });
  const auto deadline = Clock::now() + kPatience;
  while (!lock.has_parked_waiter() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const bool parked = lock.has_parked_waiter();
  EXPECT_FALSE(acquired.load());
  lock.unlock();
  const auto wake_deadline = Clock::now() + kPatience;
  while (!acquired.load() && Clock::now() < wake_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (!acquired.load()) {
    // A waiter that never woke cannot be joined; fail loudly instead of
    // hanging the suite.
    ADD_FAILURE() << "parked waiter not woken by unlock";
    std::abort();
  }
  waiter.join();
  EXPECT_TRUE(parked) << "waiter never parked within " << kPatience.count()
                      << " s";
  EXPECT_FALSE(lock.has_parked_waiter());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace rum

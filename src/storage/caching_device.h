#ifndef RUMLAB_STORAGE_CACHING_DEVICE_H_
#define RUMLAB_STORAGE_CACHING_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/counters.h"
#include "core/memory_budget.h"
#include "core/metrics.h"
#include "core/spin_lock.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// An LRU write-back cache stacked on another Device -- one level of the
/// paper's Figure-2 memory hierarchy.
///
/// Accounting model: traffic served from this level is charged to this
/// level's own RumCounters; misses and write-backs propagate to the
/// underlying device, which charges *its* counters. The cache's resident
/// bytes (its memory overhead MO at level n-1) are reported in this level's
/// counters as auxiliary space.
///
/// Partitions: the cache is P independent LRU partitions, and a page
/// belongs to the partition a multiplicative hash of its id picks. P is
/// fixed at construction from the capacity alone,
/// P = clamp(capacity_pages / 32, 1, 16) -- no knob and nothing host
/// dependent, so RUM numbers do not move with the machine. Each partition
/// owns a share of the capacity (shares always sum to `capacity_pages`;
/// SetCapacity re-splits them) and evicts in exact LRU order within that
/// share. A cache under 64 pages is one partition: one global exact LRU.
///
/// Thread safety: each partition has its own lock guarding its map, LRU
/// list, counts and the base-device I/O of its pages (miss reads and dirty
/// write-backs), so a page's base traffic is ordered while pages of other
/// partitions move in parallel. The partition lock is a SpinLock (spin,
/// then park): every pin, unpin, Read and Write enters it, and a hold is a
/// map probe and a list splice, plus on a miss one base read and at most
/// one dirty write-back (4 KiB memory copies over a BlockDevice) -- shorter
/// than the futex sleep and wake-up a std::mutex pays on every contended
/// hand-off.
/// SetCapacity's resize_mu_, a rare whole-cache section, is a std::mutex.
/// There is no global lock: the base device must accept concurrent calls
/// on distinct pages (BlockDevice does, as do the fault and retry
/// decorators). Allocate goes straight to the base.
/// Pins hold their partition's lock only for the lookup/insert and the
/// unpin bookkeeping, not for the caller's critical section, so concurrent
/// callers must touch disjoint pages while pinned (the ShardedMethod
/// partitioning guarantees exactly that). Aggregate getters, FlushAll and
/// SetCapacity visit partitions one at a time in index order; Crash()
/// requires quiescence.
///
/// Pinned entries are excluded from eviction, so a burst of pins can push a
/// partition's residency transiently above its share; the overshoot is
/// trimmed back as pins release.
class CachingDevice : public Device, public MemoryPool {
 public:
  /// Wraps `base` (borrowed, must outlive this) with an LRU cache holding at
  /// most `capacity_pages` page copies. With a non-null `registrar` the
  /// cache registers itself as a resizable kCache memory pool (global
  /// memory arbitration; see core/memory_budget.h) and ticks the
  /// registrar's epoch clock once per cache operation -- always after
  /// releasing its partition lock, because a replan triggered by the tick
  /// calls back into SetCapacity.
  CachingDevice(Device* base, size_t capacity_pages,
                MemoryRegistrar* registrar = nullptr);

  ~CachingDevice() override;

  Status Allocate(DataClass cls, PageId* out) override;
  Status Free(PageId page) override;
  Status Read(PageId page, std::vector<uint8_t>* out) override;
  Status Write(PageId page, const std::vector<uint8_t>& data) override;
  Status FlushAll() override;

  /// Pins the cache entry for `page` (faulting it in from the base device
  /// on a miss) and returns a view of its bytes. A hit charges this level's
  /// counters exactly like a cache-hit Read; a miss charges only the base.
  Status PinForRead(PageId page, PageReadGuard* out) override;

  /// Pins the cache entry for `page` for in-place mutation. On a miss the
  /// entry is zero-filled WITHOUT reading the base device (matching the
  /// accounting of a blind Write), so callers must fully overwrite the
  /// block unless the page is simultaneously read-pinned or already cached.
  /// The cache-level write charge lands at the guard's dirty release; a
  /// clean release of a missed pin drops the speculative entry unchanged.
  Status PinForWrite(PageId page, PageWriteGuard* out) override;

  /// Crash simulation: every cached entry -- dirty or clean -- vanishes
  /// without write-back, open pins are abandoned (late guard releases are
  /// no-ops), and the crash propagates to the device below. Only state that
  /// reached the bottom of the stack survives.
  void Crash() override;

  size_t block_size() const override { return base_->block_size(); }
  size_t live_pages() const override { return base_->live_pages(); }

  /// This cache level's own accounting (hits served, resident bytes).
  CounterSnapshot level_stats() const { return counters_.snapshot(); }
  void ResetLevelStats() { counters_.ResetTraffic(); }

  /// Retargets the cache to hold at most `capacity_pages` entries, trimming
  /// immediately with the pin-safe skip-and-continue eviction sweep. Pinned
  /// entries are never touched: a shrink below the pinned population leaves
  /// residency transiently above the new cap, and the standard
  /// unpin-time trim (UnpinRead/UnpinWrite) converges it as pins release.
  /// Returns non-OK (the first write-back failure) only when dirty-victim
  /// write-back faults kept residency above the new cap; the capacity
  /// itself is always updated.
  /// The partition count is not changed by a resize; only the shares are.
  Status SetCapacity(size_t capacity_pages);

  // MemoryPool (the global arbiter's resize surface): assigned bytes are
  // capacity * block_size; the benefit signal is miss bytes (every miss is
  // base-device traffic more capacity might have absorbed).
  std::string_view pool_name() const override { return "caching_device"; }
  MemoryPoolKind pool_kind() const override { return MemoryPoolKind::kCache; }
  uint64_t pool_bytes() const override;
  void SetPoolBytes(uint64_t bytes) override;
  uint64_t BenefitSignal() const override;

  size_t capacity_pages() const;
  size_t cached_pages() const;
  uint64_t hits() const;
  uint64_t misses() const;
  /// Entries dropped from the cache by eviction sweeps.
  uint64_t evictions() const;
  /// Dirty victims successfully written back (by eviction or FlushAll).
  uint64_t write_backs() const;
  /// Dirty-victim write-backs that failed during eviction sweeps; the
  /// victim stays cached and the sweep moves on to the next candidate.
  uint64_t write_back_failures() const;

  /// Cached pages currently pinned (tests / debugging).
  size_t pinned_pages() const;
  /// Number of LRU partitions (fixed at construction).
  size_t partitions() const { return num_partitions_; }

 protected:
  void UnpinRead(PageId page) override;
  Status UnpinWrite(PageId page, bool dirty) override;

 private:
  struct CacheEntry {
    std::vector<uint8_t> bytes;
    bool dirty = false;
    uint32_t pins = 0;
    /// Created by a missed write pin: contents are not backed by the base
    /// device until a dirty release lands; dropped on a clean release.
    bool speculative = false;
    /// Steady-clock stamp of the 0->1 pin, read only while tracing, so a
    /// kPinRelease event can carry the held duration.
    uint64_t pinned_at_ns = 0;
    std::list<PageId>::iterator lru_pos;
  };

  /// One LRU partition. Its lock guards every field and the base-device
  /// I/O of the pages that hash here.
  struct alignas(64) Partition {
    mutable SpinLock mu;
    std::unordered_map<PageId, CacheEntry> entries;
    std::list<PageId> lru;  // Front = MRU, back = LRU.
    /// The last evicted entry's page buffer, reused by the next miss or
    /// blind write pin so the steady state allocates no 4 KiB blocks.
    std::vector<uint8_t> spare;
    size_t capacity = 0;
    uint64_t pins = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t write_backs = 0;
    uint64_t write_back_failures = 0;
  };

  Partition& PartitionOf(PageId page) const;
  /// Sums `field` over every partition, one lock at a time.
  uint64_t Sum(uint64_t Partition::*field) const;
  /// A page buffer of any size: the partition's spare, else a fresh one.
  static std::vector<uint8_t> TakeBuffer(Partition* p);
  /// Moves `entry` to the MRU position.
  static void Touch(Partition* p, CacheEntry* entry);
  /// One LRU-to-MRU eviction sweep over `p` (writing back dirty victims)
  /// until at most `target` entries remain. Pinned entries and victims
  /// whose dirty write-back fails are *skipped*, not sweep-ending: a single
  /// unwritable page cannot wedge eviction while clean victims exist.
  /// Returns non-OK (the first write-back failure) only when failures left
  /// the partition above `target`; an all-pinned overshoot still returns OK.
  Status EvictDownTo(Partition* p, size_t target);
  /// Inserts a page copy, evicting as needed.
  Status InsertEntry(Partition* p, PageId page,
                     const std::vector<uint8_t>& bytes, bool dirty);
  /// Inserts a pinned entry for the pin path; may overshoot the share when
  /// eviction candidates are all pinned. Returns the entry or nullptr on a
  /// write-back failure during eviction (status in `*s`).
  CacheEntry* InsertPinnedEntry(Partition* p, PageId page,
                                std::vector<uint8_t> bytes, bool speculative,
                                Status* s);
  /// Removes `entry` from the map and LRU list, releasing its space and
  /// keeping its buffer as the partition's spare. Returns the LRU-list
  /// iterator following the removed position, so a sweep can keep walking.
  std::list<PageId>::iterator DropEntry(Partition* p, PageId page,
                                        CacheEntry* entry);
  /// Emits the one-shot kRecovery event on the first operation after a
  /// Crash().
  void NoteRecovery();
  /// Ticks the registrar's epoch clock. MUST be called with no partition
  /// lock held: a replan fired by the tick re-enters SetCapacity.
  void TickRegistrar();

  Device* base_;  // Not owned.
  MemoryRegistrar* registrar_;  // Not owned; may be null.
  const size_t num_partitions_;
  std::unique_ptr<Partition[]> partitions_;
  std::mutex resize_mu_;  // Serializes SetCapacity's re-splits.
  std::atomic<size_t> capacity_pages_;
  RumCounters counters_;
  std::atomic<bool> crashed_{false};
  /// Last member: unregisters before any state its callbacks read dies.
  MetricsGroup metrics_;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_CACHING_DEVICE_H_

#ifndef RUMLAB_STORAGE_BLOCK_DEVICE_H_
#define RUMLAB_STORAGE_BLOCK_DEVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/counters.h"
#include "core/metrics.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/device.h"

namespace rum {

/// A deterministic simulated block device.
///
/// This is the substrate the paper's cost model assumes: storage with a
/// minimum access granularity (Section 4, "the fundamental assumption that
/// data has a minimum access granularity holds for all storage mediums").
/// Every read or write touches whole blocks and is charged -- in bytes and
/// blocks, tagged base vs auxiliary -- to the RumCounters supplied at
/// construction.
///
/// Pages are allocated with a DataClass tag so space amplification can be
/// derived exactly: resident space is (#allocated pages of class) x
/// block_size.
///
/// Thread safety: Read, Write, Charge{Read,Write}, pins and unpins of
/// *distinct* live pages may run concurrently with each other and with
/// Allocate/Free/Reclassify. Page slots never move once created, an
/// internal mutex guards only allocation state (the free list, slot
/// creation, liveness and the per-class live counts), and the counts and
/// `pinned_pages()` are atomics readable at any time. Calls on the *same*
/// page must be serialized by the caller (CachingDevice does it with the
/// page's partition lock). Crash() requires quiescence.
class BlockDevice : public Device {
 public:
  /// Creates a device with blocks of `block_size` bytes, charging all
  /// traffic to `counters` (borrowed; must outlive the device).
  BlockDevice(size_t block_size, RumCounters* counters);
  ~BlockDevice() override;

  /// Allocates a zeroed page of class `cls`; never fails at this level (the
  /// simulated store has no capacity limit -- allocation faults come from a
  /// FaultyDevice stacked on top).
  Status Allocate(DataClass cls, PageId* out) override;

  /// Frees a page; its id may be recycled by later allocations.
  Status Free(PageId page) override;

  /// Reads a whole block into `out` (resized to block_size). Charged as one
  /// block read of the page's class.
  Status Read(PageId page, std::vector<uint8_t>* out) override;

  /// Writes a whole block from `data` (must be exactly block_size bytes).
  /// Charged as one block write of the page's class.
  Status Write(PageId page, const std::vector<uint8_t>& data) override;

  /// No buffering at the bottom of the stack; always OK.
  Status FlushAll() override { return Status::OK(); }

  /// Zero-copy pin straight into the page slot's backing bytes. Charged
  /// exactly like Read (at pin time); the slot cannot be freed while pinned.
  Status PinForRead(PageId page, PageReadGuard* out) override;

  /// Zero-copy mutable pin into the page slot. Nothing is charged until the
  /// guard's dirty release, which is charged exactly like Write.
  Status PinForWrite(PageId page, PageWriteGuard* out) override;

  /// Direct mutable access to a page's backing bytes WITHOUT accounting.
  /// Only for tests and for internal assembly of a block that is charged
  /// separately via Charge{Read,Write}.
  std::vector<uint8_t>* mutable_page_unaccounted(PageId page);
  const std::vector<uint8_t>* page_unaccounted(PageId page) const;

  /// Explicitly charges a block read/write of page `page` without moving
  /// bytes (used by zero-copy in-simulator paths).
  Status ChargeRead(PageId page) const;
  Status ChargeWrite(PageId page);

  /// Reclassifies a live page (e.g. when a buffer becomes part of an index).
  Status Reclassify(PageId page, DataClass cls);

  /// Crash simulation: the bottom of the stack holds no volatile state, so
  /// only open pins are abandoned (their late releases become no-ops).
  void Crash() override;

  size_t block_size() const override { return block_size_; }
  /// Live (allocated, not freed) page count, total and per class.
  size_t live_pages() const override {
    return live_total_.load(std::memory_order_relaxed);
  }
  size_t live_pages(DataClass cls) const {
    return (cls == DataClass::kBase ? live_base_ : live_aux_)
        .load(std::memory_order_relaxed);
  }

  /// Pins currently outstanding across all pages (tests / debugging).
  size_t pinned_pages() const {
    return pins_outstanding_.load(std::memory_order_relaxed);
  }

 protected:
  void UnpinRead(PageId page) override;
  Status UnpinWrite(PageId page, bool dirty) override;

 private:
  struct PageSlot {
    std::vector<uint8_t> bytes;
    DataClass cls = DataClass::kBase;
    bool live = false;
    uint32_t pins = 0;
  };

  /// Slots live in chunks that never move: chunk k holds kFirstChunk << k
  /// slots, so kMaxChunks chunks cover every PageId and a slot's address is
  /// fixed from creation until the device dies.
  static constexpr size_t kFirstChunkBits = 6;
  static constexpr size_t kFirstChunk = size_t{1} << kFirstChunkBits;
  static constexpr size_t kMaxChunks = 33 - kFirstChunkBits;

  /// The slot for an id below slot_count_.
  PageSlot& SlotAt(PageId page) const;
  Status CheckLive(PageId page) const;
  /// Moves one page between the per-class live counts (mu_ held).
  void CountLive(DataClass cls, int delta);

  size_t block_size_;
  RumCounters* counters_;  // Not owned.
  std::array<std::atomic<PageSlot*>, kMaxChunks> chunks_{};
  /// Slots ever created; ids below it have a slot. Published with release
  /// after the slot's chunk exists.
  std::atomic<size_t> slot_count_{0};
  std::mutex mu_;  // Guards free_list_, slot creation, liveness, counts.
  std::vector<PageId> free_list_;
  std::atomic<size_t> live_total_{0};
  std::atomic<size_t> live_base_{0};
  std::atomic<size_t> live_aux_{0};
  std::atomic<size_t> pins_outstanding_{0};
  /// Last member: unregisters before any state its callbacks read dies.
  MetricsGroup metrics_;
};

}  // namespace rum

#endif  // RUMLAB_STORAGE_BLOCK_DEVICE_H_

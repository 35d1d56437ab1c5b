#include "storage/block_device.h"

#include <bit>
#include <cassert>

#include "core/trace.h"

namespace rum {

BlockDevice::BlockDevice(size_t block_size, RumCounters* counters)
    : block_size_(block_size), counters_(counters) {
  assert(block_size_ > 0);
  assert(counters_ != nullptr);
  metrics_.Init("block_device");
  metrics_.Gauge("live_pages",
                 [this] { return static_cast<uint64_t>(live_pages()); });
  metrics_.Gauge("live_pages_base", [this] {
    return static_cast<uint64_t>(live_pages(DataClass::kBase));
  });
  metrics_.Gauge("live_pages_aux", [this] {
    return static_cast<uint64_t>(live_pages(DataClass::kAux));
  });
  metrics_.Gauge("pinned_pages",
                 [this] { return static_cast<uint64_t>(pinned_pages()); });
}

BlockDevice::~BlockDevice() {
  for (std::atomic<PageSlot*>& chunk : chunks_) delete[] chunk.load();
}

BlockDevice::PageSlot& BlockDevice::SlotAt(PageId page) const {
  // Chunk k starts at id kFirstChunk * (2^k - 1); offsetting the id by
  // kFirstChunk turns the chunk index into a bit position.
  size_t v = static_cast<size_t>(page) + kFirstChunk;
  size_t k = static_cast<size_t>(std::bit_width(v)) - 1 - kFirstChunkBits;
  return chunks_[k].load(std::memory_order_acquire)[v - (kFirstChunk << k)];
}

void BlockDevice::CountLive(DataClass cls, int delta) {
  // Unsigned wrap makes adding static_cast<size_t>(-1) a decrement.
  size_t d = static_cast<size_t>(delta);
  live_total_.fetch_add(d, std::memory_order_relaxed);
  (cls == DataClass::kBase ? live_base_ : live_aux_)
      .fetch_add(d, std::memory_order_relaxed);
}

Status BlockDevice::Allocate(DataClass cls, PageId* out) {
  PageId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      size_t n = slot_count_.load(std::memory_order_relaxed);
      assert(n < kInvalidPageId);
      id = static_cast<PageId>(n);
      size_t v = n + kFirstChunk;
      size_t k = static_cast<size_t>(std::bit_width(v)) - 1 - kFirstChunkBits;
      if (v == (kFirstChunk << k)) {
        chunks_[k].store(new PageSlot[kFirstChunk << k],
                         std::memory_order_release);
      }
      slot_count_.store(n + 1, std::memory_order_release);
    }
    PageSlot& slot = SlotAt(id);
    slot.cls = cls;
    slot.live = true;
    CountLive(cls, +1);
  }
  // The id is not visible to anyone else yet, so the 4 KiB zero-fill runs
  // outside the lock. A recycled slot keeps its capacity (Free only clears).
  SlotAt(id).bytes.assign(block_size_, 0);
  counters_->AdjustSpace(cls, static_cast<int64_t>(block_size_));
  *out = id;
  return Status::OK();
}

Status BlockDevice::CheckLive(PageId page) const {
  if (page >= slot_count_.load(std::memory_order_acquire) ||
      !SlotAt(page).live) {
    return Status::InvalidArgument("page not live");
  }
  return Status::OK();
}

Status BlockDevice::Free(PageId page) {
  DataClass cls;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status s = CheckLive(page);
    if (!s.ok()) return s;
    PageSlot& slot = SlotAt(page);
    if (slot.pins != 0) {
      return Status::InvalidArgument("cannot free a pinned page");
    }
    slot.live = false;
    // Keep the slot's capacity: Allocate() re-zeroes recycled slots in
    // place, so freeing must not force a reallocation on the next reuse.
    slot.bytes.clear();
    free_list_.push_back(page);
    cls = slot.cls;
    CountLive(cls, -1);
  }
  counters_->AdjustSpace(cls, -static_cast<int64_t>(block_size_));
  return Status::OK();
}

Status BlockDevice::Read(PageId page, std::vector<uint8_t>* out) {
  Status s = ChargeRead(page);
  if (!s.ok()) return s;
  *out = SlotAt(page).bytes;
  return Status::OK();
}

Status BlockDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  if (data.size() != block_size_) {
    return Status::InvalidArgument("write size must equal block size");
  }
  Status s = ChargeWrite(page);
  if (!s.ok()) return s;
  SlotAt(page).bytes = data;
  return Status::OK();
}

Status BlockDevice::PinForRead(PageId page, PageReadGuard* out) {
  Status s = ChargeRead(page);
  if (!s.ok()) return s;
  PageSlot& slot = SlotAt(page);
  ++slot.pins;
  pins_outstanding_.fetch_add(1, std::memory_order_relaxed);
  *out = MakeReadGuard(this, page, slot.bytes.data(), block_size_);
  return Status::OK();
}

Status BlockDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  PageSlot& slot = SlotAt(page);
  ++slot.pins;
  pins_outstanding_.fetch_add(1, std::memory_order_relaxed);
  *out = MakeWriteGuard(this, page, slot.bytes.data(), block_size_);
  return Status::OK();
}

void BlockDevice::UnpinRead(PageId page) {
  // A zero pin count here means the guard outlived a Crash(); its release
  // is tolerated as a no-op (the crash already dropped the pin).
  assert(page < slot_count_.load(std::memory_order_acquire));
  PageSlot& slot = SlotAt(page);
  if (slot.pins == 0) return;
  --slot.pins;
  pins_outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

Status BlockDevice::UnpinWrite(PageId page, bool dirty) {
  assert(page < slot_count_.load(std::memory_order_acquire));
  PageSlot& slot = SlotAt(page);
  if (slot.pins == 0) return Status::OK();  // Post-crash abandoned guard.
  --slot.pins;
  pins_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (!dirty) return Status::OK();
  return ChargeWrite(page);
}

void BlockDevice::Crash() {
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, pinned_pages());
  size_t n = slot_count_.load(std::memory_order_acquire);
  for (size_t id = 0; id < n; ++id) SlotAt(static_cast<PageId>(id)).pins = 0;
  pins_outstanding_.store(0, std::memory_order_relaxed);
}

std::vector<uint8_t>* BlockDevice::mutable_page_unaccounted(PageId page) {
  if (!CheckLive(page).ok()) return nullptr;
  return &SlotAt(page).bytes;
}

const std::vector<uint8_t>* BlockDevice::page_unaccounted(PageId page) const {
  if (!CheckLive(page).ok()) return nullptr;
  return &SlotAt(page).bytes;
}

Status BlockDevice::ChargeRead(PageId page) const {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  counters_->OnRead(SlotAt(page).cls, block_size_);
  counters_->OnBlockRead();
  return Status::OK();
}

Status BlockDevice::ChargeWrite(PageId page) {
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  counters_->OnWrite(SlotAt(page).cls, block_size_);
  counters_->OnBlockWrite();
  return Status::OK();
}

Status BlockDevice::Reclassify(PageId page, DataClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = CheckLive(page);
  if (!s.ok()) return s;
  PageSlot& slot = SlotAt(page);
  if (slot.cls == cls) return Status::OK();
  counters_->AdjustSpace(slot.cls, -static_cast<int64_t>(block_size_));
  counters_->AdjustSpace(cls, static_cast<int64_t>(block_size_));
  CountLive(slot.cls, -1);
  CountLive(cls, +1);
  slot.cls = cls;
  return Status::OK();
}

}  // namespace rum

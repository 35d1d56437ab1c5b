#include "storage/caching_device.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/status_builder.h"
#include "core/trace.h"

namespace rum {

namespace {
/// Steady-clock nanoseconds, read only on traced pin transitions.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// P = clamp(capacity / 32, 1, 16): a function of the capacity alone.
size_t PartitionCount(size_t capacity_pages) {
  return std::clamp<size_t>(capacity_pages / 32, 1, 16);
}

/// Partition i's share of `capacity` pages; shares sum to `capacity`.
size_t ShareOf(size_t i, size_t partitions, size_t capacity) {
  return capacity / partitions + (i < capacity % partitions ? 1 : 0);
}
}  // namespace

CachingDevice::CachingDevice(Device* base, size_t capacity_pages,
                             MemoryRegistrar* registrar)
    : base_(base),
      registrar_(registrar),
      num_partitions_(PartitionCount(capacity_pages)),
      partitions_(new Partition[num_partitions_]),
      capacity_pages_(capacity_pages) {
  assert(base_ != nullptr);
  for (size_t i = 0; i < num_partitions_; ++i) {
    partitions_[i].capacity = ShareOf(i, num_partitions_, capacity_pages);
  }
  if (registrar_ != nullptr) registrar_->RegisterPool(this);
  metrics_.Init("caching_device");
  metrics_.Gauge("hits", [this] { return hits(); });
  metrics_.Gauge("misses", [this] { return misses(); });
  metrics_.Gauge("evictions", [this] { return evictions(); });
  metrics_.Gauge("write_backs", [this] { return write_backs(); });
  metrics_.Gauge("write_back_failures",
                 [this] { return write_back_failures(); });
  metrics_.Gauge("cached_pages",
                 [this] { return static_cast<uint64_t>(cached_pages()); });
  metrics_.Gauge("pinned_pages",
                 [this] { return static_cast<uint64_t>(pinned_pages()); });
}

CachingDevice::~CachingDevice() {
  if (registrar_ != nullptr) registrar_->UnregisterPool(this);
}

CachingDevice::Partition& CachingDevice::PartitionOf(PageId page) const {
  // Fibonacci hashing spreads consecutive page ids; the high 32 bits are
  // then scaled onto [0, P) without a division.
  uint64_t h = (static_cast<uint64_t>(page) * 0x9E3779B97F4A7C15ull) >> 32;
  return partitions_[(h * num_partitions_) >> 32];
}

uint64_t CachingDevice::Sum(uint64_t Partition::*field) const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_partitions_; ++i) {
    std::lock_guard<std::mutex> lock(partitions_[i].mu);
    total += partitions_[i].*field;
  }
  return total;
}

void CachingDevice::TickRegistrar() {
  if (registrar_ != nullptr) registrar_->NotePoolOps(1);
}

void CachingDevice::NoteRecovery() {
  if (!crashed_.load(std::memory_order_relaxed) || !crashed_.exchange(false)) {
    return;
  }
  Trace::Emit(TraceKind::kRecovery, TraceOp::kNone, kInvalidPageId,
              DataClass::kAux);
}

Status CachingDevice::SetCapacity(size_t capacity_pages) {
  std::lock_guard<std::mutex> resize(resize_mu_);
  capacity_pages_.store(capacity_pages, std::memory_order_relaxed);
  // Trim immediately with the pin-safe sweep: pinned entries and victims
  // whose write-back fails are skipped, never sweep-ending, so a shrink
  // below the pinned population cannot wedge -- residency converges to the
  // new share through the unpin-time EvictDownTo as pins release.
  Status first_failure = Status::OK();
  for (size_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    p.capacity = ShareOf(i, num_partitions_, capacity_pages);
    Status s = EvictDownTo(&p, p.capacity);
    if (first_failure.ok()) first_failure = s;
  }
  return first_failure;
}

uint64_t CachingDevice::pool_bytes() const {
  return static_cast<uint64_t>(capacity_pages()) * block_size();
}

void CachingDevice::SetPoolBytes(uint64_t bytes) {
  (void)SetCapacity(static_cast<size_t>(bytes / block_size()));
}

uint64_t CachingDevice::BenefitSignal() const {
  return misses() * block_size();
}

size_t CachingDevice::capacity_pages() const {
  return capacity_pages_.load(std::memory_order_relaxed);
}

Status CachingDevice::Allocate(DataClass cls, PageId* out) {
  NoteRecovery();
  return base_->Allocate(cls, out);
}

size_t CachingDevice::cached_pages() const {
  size_t total = 0;
  for (size_t i = 0; i < num_partitions_; ++i) {
    std::lock_guard<std::mutex> lock(partitions_[i].mu);
    total += partitions_[i].entries.size();
  }
  return total;
}

uint64_t CachingDevice::hits() const { return Sum(&Partition::hits); }

uint64_t CachingDevice::misses() const { return Sum(&Partition::misses); }

uint64_t CachingDevice::evictions() const {
  return Sum(&Partition::evictions);
}

uint64_t CachingDevice::write_backs() const {
  return Sum(&Partition::write_backs);
}

uint64_t CachingDevice::write_back_failures() const {
  return Sum(&Partition::write_back_failures);
}

size_t CachingDevice::pinned_pages() const {
  return static_cast<size_t>(Sum(&Partition::pins));
}

Status CachingDevice::Free(PageId page) {
  Partition& p = PartitionOf(page);
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.entries.find(page);
  if (it != p.entries.end()) {
    if (it->second.pins != 0) {
      return Status::InvalidArgument("cannot free a pinned page");
    }
    DropEntry(&p, page, &it->second);
  }
  return base_->Free(page);
}

std::vector<uint8_t> CachingDevice::TakeBuffer(Partition* p) {
  return std::exchange(p->spare, {});
}

void CachingDevice::Touch(Partition* p, CacheEntry* entry) {
  p->lru.splice(p->lru.begin(), p->lru, entry->lru_pos);
}

std::list<PageId>::iterator CachingDevice::DropEntry(Partition* p,
                                                     PageId page,
                                                     CacheEntry* entry) {
  counters_.AdjustSpace(DataClass::kAux, -static_cast<int64_t>(block_size()));
  if (p->spare.capacity() == 0) p->spare = std::move(entry->bytes);
  auto next = p->lru.erase(entry->lru_pos);
  p->entries.erase(page);
  return next;
}

Status CachingDevice::EvictDownTo(Partition* p, size_t target) {
  // One backward sweep, LRU toward MRU. Skipping (rather than aborting on)
  // pinned entries and failed write-backs is what keeps a single unwritable
  // dirty page from wedging eviction while clean victims exist -- and the
  // cache can never grow past capacity under repeated write-back faults,
  // because the stuck victims stay *within* the existing entry set and
  // inserts that cannot make room below capacity fail instead of growing.
  Status first_failure = Status::OK();
  auto it = p->lru.end();
  while (p->entries.size() > target && it != p->lru.begin()) {
    --it;
    PageId page = *it;
    CacheEntry& entry = p->entries.at(page);
    if (entry.pins != 0) continue;  // Must stay at a stable address.
    bool was_dirty = entry.dirty;
    if (was_dirty) {
      Status s = base_->Write(page, entry.bytes);
      if (!s.ok()) {
        ++p->write_back_failures;
        Trace::Emit(TraceKind::kCacheWriteBackFail, TraceOp::kWrite, page,
                    DataClass::kAux);
        if (first_failure.ok()) {
          // Name the victim: the caller's op (an unrelated insert or unpin)
          // is not the page whose write-back actually failed.
          first_failure =
              StatusBuilder(s).Op("EvictDownTo write-back").Page(page);
        }
        continue;  // Victim stays cached (and dirty); try the next one.
      }
      ++p->write_backs;
      Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kWrite, page,
                  DataClass::kAux);
    }
    ++p->evictions;
    Trace::Emit(TraceKind::kCacheEvict, TraceOp::kNone, page, DataClass::kAux,
                was_dirty ? 1 : 0);
    it = DropEntry(p, page, &entry);
  }
  // Report a failure only when it actually kept the partition above
  // target; an all-pinned overshoot is the caller's documented transient
  // state.
  if (p->entries.size() > target && !first_failure.ok()) return first_failure;
  return Status::OK();
}

Status CachingDevice::InsertEntry(Partition* p, PageId page,
                                  const std::vector<uint8_t>& bytes,
                                  bool dirty) {
  if (p->capacity == 0) {
    // Degenerate share: write-through, cache nothing.
    if (dirty) return base_->Write(page, bytes);
    return Status::OK();
  }
  if (p->entries.size() >= p->capacity) {
    Status s = EvictDownTo(p, p->capacity - 1);
    if (!s.ok()) return s;
  }
  p->lru.push_front(page);
  CacheEntry& entry = p->entries[page];
  entry.bytes = TakeBuffer(p);
  entry.bytes.assign(bytes.begin(), bytes.end());
  entry.dirty = dirty;
  entry.lru_pos = p->lru.begin();
  counters_.AdjustSpace(DataClass::kAux, static_cast<int64_t>(block_size()));
  return Status::OK();
}

CachingDevice::CacheEntry* CachingDevice::InsertPinnedEntry(
    Partition* p, PageId page, std::vector<uint8_t> bytes, bool speculative,
    Status* s) {
  // Unlike the copy path, pins always need a resident entry -- even at a
  // zero share, where the entry lives only for the pin window and is
  // trimmed away (write-back if dirty) when the last pin releases.
  if (p->capacity > 0 && p->entries.size() >= p->capacity) {
    *s = EvictDownTo(p, p->capacity - 1);
    if (!s->ok()) {
      if (p->spare.capacity() == 0) p->spare = std::move(bytes);
      return nullptr;
    }
  }
  p->lru.push_front(page);
  CacheEntry& entry = p->entries[page];
  entry.bytes = std::move(bytes);
  entry.pins = 1;
  entry.speculative = speculative;
  entry.lru_pos = p->lru.begin();
  counters_.AdjustSpace(DataClass::kAux, static_cast<int64_t>(block_size()));
  ++p->pins;
  *s = Status::OK();
  return &entry;
}

Status CachingDevice::Read(PageId page, std::vector<uint8_t>* out) {
  NoteRecovery();
  Partition& p = PartitionOf(page);
  Status result = [&] {
    std::lock_guard<std::mutex> lock(p.mu);
    auto it = p.entries.find(page);
    if (it != p.entries.end()) {
      ++p.hits;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kRead, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(&p, &it->second);
      *out = it->second.bytes;
      return Status::OK();
    }
    ++p.misses;
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kRead, page, DataClass::kAux);
    Status s = base_->Read(page, out);
    if (!s.ok()) return s;
    return InsertEntry(&p, page, *out, /*dirty=*/false);
  }();
  TickRegistrar();  // Unlocked: a replan here re-enters SetCapacity.
  return result;
}

Status CachingDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  NoteRecovery();
  Partition& p = PartitionOf(page);
  Status result = [&] {
    if (data.size() != block_size()) {
      return Status::InvalidArgument("write size must equal block size");
    }
    std::lock_guard<std::mutex> lock(p.mu);
    counters_.OnWrite(DataClass::kAux, block_size());
    counters_.OnBlockWrite();
    auto it = p.entries.find(page);
    if (it != p.entries.end()) {
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kWrite, page,
                  DataClass::kAux);
      it->second.bytes = data;
      it->second.dirty = true;
      Touch(&p, &it->second);
      return Status::OK();
    }
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kWrite, page, DataClass::kAux);
    return InsertEntry(&p, page, data, /*dirty=*/true);
  }();
  TickRegistrar();
  return result;
}

Status CachingDevice::PinForRead(PageId page, PageReadGuard* out) {
  NoteRecovery();
  Partition& p = PartitionOf(page);
  Status result = [&] {
    std::lock_guard<std::mutex> lock(p.mu);
    auto it = p.entries.find(page);
    if (it != p.entries.end()) {
      ++p.hits;
      Trace::Emit(TraceKind::kCacheHit, TraceOp::kPin, page, DataClass::kAux);
      // Served at this level: charge the cache, not the device below.
      counters_.OnRead(DataClass::kAux, block_size());
      counters_.OnBlockRead();
      Touch(&p, &it->second);
      ++it->second.pins;
      ++p.pins;
      if (Trace::enabled()) {
        if (it->second.pins == 1) it->second.pinned_at_ns = NowNs();
        Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                    DataClass::kAux);
      }
      *out = MakeReadGuard(this, page, it->second.bytes.data(), block_size());
      return Status::OK();
    }
    ++p.misses;
    Trace::Emit(TraceKind::kCacheMiss, TraceOp::kPin, page, DataClass::kAux);
    std::vector<uint8_t> bytes = TakeBuffer(&p);
    Status s = base_->Read(page, &bytes);
    if (!s.ok()) {
      p.spare = std::move(bytes);
      return s;
    }
    CacheEntry* entry = InsertPinnedEntry(&p, page, std::move(bytes),
                                          /*speculative=*/false, &s);
    if (entry == nullptr) return s;
    if (Trace::enabled()) {
      entry->pinned_at_ns = NowNs();
      Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                  DataClass::kAux);
    }
    *out = MakeReadGuard(this, page, entry->bytes.data(), block_size());
    return Status::OK();
  }();
  // Unlocked. The just-pinned entry is eviction-exempt, so a replan fired
  // by this tick cannot invalidate the guard handed out above.
  TickRegistrar();
  return result;
}

Status CachingDevice::PinForWrite(PageId page, PageWriteGuard* out) {
  NoteRecovery();
  Partition& p = PartitionOf(page);
  Status result = [&] {
    std::lock_guard<std::mutex> lock(p.mu);
    auto it = p.entries.find(page);
    if (it != p.entries.end()) {
      Touch(&p, &it->second);
      ++it->second.pins;
      ++p.pins;
      if (Trace::enabled()) {
        if (it->second.pins == 1) it->second.pinned_at_ns = NowNs();
        Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                    DataClass::kAux);
      }
      *out = MakeWriteGuard(this, page, it->second.bytes.data(), block_size());
      return Status::OK();
    }
    // Blind write pin: hand out a zeroed block without faulting the page in,
    // mirroring the copy path's Write-on-miss (no base read is charged).
    std::vector<uint8_t> bytes = TakeBuffer(&p);
    bytes.assign(block_size(), 0);
    Status s;
    CacheEntry* entry = InsertPinnedEntry(&p, page, std::move(bytes),
                                          /*speculative=*/true, &s);
    if (entry == nullptr) return s;
    if (Trace::enabled()) {
      entry->pinned_at_ns = NowNs();
      Trace::Emit(TraceKind::kPinAcquire, TraceOp::kPin, page,
                  DataClass::kAux);
    }
    *out = MakeWriteGuard(this, page, entry->bytes.data(), block_size());
    return Status::OK();
  }();
  TickRegistrar();
  return result;
}

void CachingDevice::UnpinRead(PageId page) {
  Partition& p = PartitionOf(page);
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.entries.find(page);
  if (it == p.entries.end() || it->second.pins == 0) {
    return;  // Post-crash abandoned guard.
  }
  --it->second.pins;
  --p.pins;
  if (Trace::enabled()) {
    uint64_t held = it->second.pins == 0 && it->second.pinned_at_ns != 0
                        ? NowNs() - it->second.pinned_at_ns
                        : 0;
    Trace::Emit(TraceKind::kPinRelease, TraceOp::kPin, page, DataClass::kAux,
                held);
  }
  if (it->second.pins == 0) {
    // Trim any pin-induced overshoot. A failed write-back here simply
    // leaves the dirty victim cached; it retries on the next eviction.
    EvictDownTo(&p, p.capacity);
  }
}

Status CachingDevice::UnpinWrite(PageId page, bool dirty) {
  Partition& p = PartitionOf(page);
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.entries.find(page);
  if (it == p.entries.end() || it->second.pins == 0) {
    return Status::OK();  // Post-crash abandoned guard.
  }
  CacheEntry& entry = it->second;
  --entry.pins;
  --p.pins;
  if (Trace::enabled()) {
    uint64_t held = entry.pins == 0 && entry.pinned_at_ns != 0
                        ? NowNs() - entry.pinned_at_ns
                        : 0;
    Trace::Emit(TraceKind::kPinRelease, TraceOp::kPin, page, DataClass::kAux,
                held);
  }
  if (dirty) {
    // The write lands at this level; charge it here exactly like Write.
    counters_.OnWrite(DataClass::kAux, block_size());
    counters_.OnBlockWrite();
    entry.dirty = true;
    entry.speculative = false;
  } else if (entry.speculative && entry.pins == 0) {
    // A missed write pin released clean never became real data; drop it so
    // later reads are not served zeros.
    DropEntry(&p, page, &entry);
    return Status::OK();
  }
  if (entry.pins == 0) {
    return EvictDownTo(&p, p.capacity);
  }
  return Status::OK();
}

Status CachingDevice::FlushAll() {
  NoteRecovery();
  for (size_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    for (auto& [page, entry] : p.entries) {
      if (!entry.dirty) continue;
      Status s = base_->Write(page, entry.bytes);
      if (!s.ok()) {
        Trace::Emit(TraceKind::kCacheWriteBackFail, TraceOp::kFlush, page,
                    DataClass::kAux);
        return StatusBuilder(s).Op("FlushAll write-back").Page(page);
      }
      ++p.write_backs;
      Trace::Emit(TraceKind::kCacheWriteBack, TraceOp::kFlush, page,
                  DataClass::kAux);
      entry.dirty = false;
    }
  }
  return base_->FlushAll();
}

void CachingDevice::Crash() {
  // All buffered state -- dirty or clean -- is volatile at this level;
  // releasing it adjusts this level's resident space back down. Dirty bytes
  // that never reached the base are simply lost, which is the point.
  size_t dropped = 0;
  for (size_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    dropped += p.entries.size();
    p.entries.clear();
    p.lru.clear();
    p.pins = 0;
  }
  Trace::Emit(TraceKind::kCrash, TraceOp::kNone, kInvalidPageId,
              DataClass::kAux, dropped);
  counters_.AdjustSpace(DataClass::kAux,
                        -static_cast<int64_t>(dropped * block_size()));
  crashed_.store(true);
  base_->Crash();
}

}  // namespace rum

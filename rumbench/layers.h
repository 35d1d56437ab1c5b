#ifndef RUMBENCH_LAYERS_H_
#define RUMBENCH_LAYERS_H_

// Timing decorators the traced run interposes at each layer boundary of the
// stack: an AccessMethod under ScheduledMethod / ShardedMethod, and a Device
// above and below the CachingDevice. They forward every call unchanged and
// hold the inner page guard until the outer one releases, so the stack
// underneath charges exactly what it charges without them.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/access_method.h"
#include "storage/device.h"

namespace rumbench {

/// Upper bound on concurrent client threads (per-client tallies are slots).
inline constexpr size_t kMaxClients = 8;

/// The calling client thread's slot in every per-client tally.
inline thread_local size_t client_slot = 0;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One value per client thread, each on its own cache line, so concurrent
/// clients never write the same line. Read Sum() only at quiescence.
template <typename T>
class PerClient {
 public:
  T& local() { return slots_[client_slot].value; }
  T Sum() const {
    T total;
    for (const Slot& s : slots_) total += s.value;
    return total;
  }

 private:
  struct alignas(64) Slot {
    T value;
  };
  std::array<Slot, kMaxClients> slots_;
};

struct SpanTally {
  uint64_t calls = 0;
  uint64_t ns = 0;
  SpanTally& operator+=(const SpanTally& o) {
    calls += o.calls;
    ns += o.ns;
    return *this;
  }
  SpanTally operator-(const SpanTally& o) const {
    return {calls - o.calls, ns - o.ns};
  }
};

/// Times every operation call into the wrapped method. Setup calls
/// (BulkLoad, Flush) are forwarded untimed.
class TimedMethod final : public rum::AccessMethod {
 public:
  explicit TimedMethod(std::unique_ptr<rum::AccessMethod> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  rum::Status Insert(rum::Key key, rum::Value value) override {
    return Timed([&] { return inner_->Insert(key, value); });
  }
  rum::Status Update(rum::Key key, rum::Value value) override {
    return Timed([&] { return inner_->Update(key, value); });
  }
  rum::Status Delete(rum::Key key) override {
    return Timed([&] { return inner_->Delete(key); });
  }
  rum::Result<rum::Value> Get(rum::Key key) override {
    return Timed([&] { return inner_->Get(key); });
  }
  rum::Status MultiGet(std::span<const rum::Key> keys,
                       std::vector<std::optional<rum::Value>>* out) override {
    return Timed([&] { return inner_->MultiGet(keys, out); });
  }
  rum::Status Scan(rum::Key lo, rum::Key hi,
                   std::vector<rum::Entry>* out) override {
    return Timed([&] { return inner_->Scan(lo, hi, out); });
  }
  rum::Status BulkLoad(std::span<const rum::Entry> entries) override {
    return inner_->BulkLoad(entries);
  }
  rum::Status Flush() override { return inner_->Flush(); }
  size_t size() const override { return inner_->size(); }
  rum::CounterSnapshot stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  SpanTally tally() const { return tally_.Sum(); }

 private:
  template <typename F>
  std::invoke_result_t<F&> Timed(F&& call) {
    uint64_t start = NowNs();
    auto result = call();
    SpanTally& t = tally_.local();
    t.ns += NowNs() - start;
    ++t.calls;
    return result;
  }

  std::unique_ptr<rum::AccessMethod> inner_;
  PerClient<SpanTally> tally_;
};

struct DeviceTally {
  /// Read and PinForRead calls.
  uint64_t reads = 0;
  /// Write and PinForWrite calls.
  uint64_t writes = 0;
  /// Allocate, Free and FlushAll calls.
  uint64_t others = 0;
  /// Time in every call, unpins included.
  uint64_t ns = 0;
  /// Part of `ns` spent outside any call into the device above the cache
  /// (a below-cache decorator reached by a cache resize, not a cache call).
  uint64_t direct_ns = 0;

  uint64_t calls() const { return reads + writes + others; }
  DeviceTally& operator+=(const DeviceTally& o) {
    reads += o.reads;
    writes += o.writes;
    others += o.others;
    ns += o.ns;
    direct_ns += o.direct_ns;
    return *this;
  }
  DeviceTally operator-(const DeviceTally& o) const {
    return {reads - o.reads, writes - o.writes, others - o.others, ns - o.ns,
            direct_ns - o.direct_ns};
  }
};

/// Times and counts every call into the wrapped device. The decorator above
/// the cache marks its calls in a thread-local flag; the one below the cache
/// reads the flag to split its time into nested and direct.
class TimedDevice final : public rum::Device {
 public:
  enum class Position { kAboveCache, kBelowCache };

  TimedDevice(rum::Device* base, Position position)
      : base_(base), position_(position) {}

  rum::Status Allocate(rum::DataClass cls, rum::PageId* out) override {
    Span span(this, &DeviceTally::others);
    return base_->Allocate(cls, out);
  }
  rum::Status Free(rum::PageId page) override {
    Span span(this, &DeviceTally::others);
    return base_->Free(page);
  }
  rum::Status Read(rum::PageId page, std::vector<uint8_t>* out) override {
    Span span(this, &DeviceTally::reads);
    return base_->Read(page, out);
  }
  rum::Status Write(rum::PageId page,
                    const std::vector<uint8_t>& data) override {
    Span span(this, &DeviceTally::writes);
    return base_->Write(page, data);
  }
  rum::Status FlushAll() override {
    Span span(this, &DeviceTally::others);
    return base_->FlushAll();
  }
  void Crash() override { base_->Crash(); }

  rum::Status PinForRead(rum::PageId page, rum::PageReadGuard* out) override {
    Span span(this, &DeviceTally::reads);
    rum::PageReadGuard inner;
    rum::Status s = base_->PinForRead(page, &inner);
    if (!s.ok()) return s;
    std::span<const uint8_t> bytes = inner.bytes();
    pins_.local().reads.push_back(std::move(inner));
    *out = MakeReadGuard(this, page, bytes.data(), bytes.size());
    return rum::Status::OK();
  }
  rum::Status PinForWrite(rum::PageId page,
                          rum::PageWriteGuard* out) override {
    Span span(this, &DeviceTally::writes);
    rum::PageWriteGuard inner;
    rum::Status s = base_->PinForWrite(page, &inner);
    if (!s.ok()) return s;
    std::span<uint8_t> bytes = inner.bytes();
    pins_.local().writes.push_back(std::move(inner));
    *out = MakeWriteGuard(this, page, bytes.data(), bytes.size());
    return rum::Status::OK();
  }

  size_t block_size() const override { return base_->block_size(); }
  size_t live_pages() const override { return base_->live_pages(); }

  DeviceTally tally() const { return tally_.Sum(); }

 protected:
  void UnpinRead(rum::PageId page) override {
    Span span(this, nullptr);
    TakeNewest(&pins_.local().reads, page).Release();
  }
  rum::Status UnpinWrite(rum::PageId page, bool dirty) override {
    Span span(this, nullptr);
    rum::PageWriteGuard inner = TakeNewest(&pins_.local().writes, page);
    if (dirty) inner.MarkDirty();
    return inner.Release();
  }

 private:
  /// True while the calling thread is inside a call into the device above
  /// the cache.
  static bool& InCacheCall() {
    thread_local bool in_cache_call = false;
    return in_cache_call;
  }

  /// Times one call; `counter` (may be null) names the count it adds to.
  class Span {
   public:
    Span(TimedDevice* device, uint64_t DeviceTally::*counter)
        : device_(device), counter_(counter), start_(NowNs()) {
      if (device_->position_ == Position::kAboveCache) {
        outer_ = std::exchange(InCacheCall(), true);
      }
    }
    ~Span() {
      uint64_t elapsed = NowNs() - start_;
      DeviceTally& t = device_->tally_.local();
      t.ns += elapsed;
      if (counter_ != nullptr) ++(t.*counter_);
      if (device_->position_ == Position::kAboveCache) {
        InCacheCall() = outer_;
      } else if (!InCacheCall()) {
        t.direct_ns += elapsed;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TimedDevice* device_;
    uint64_t DeviceTally::*counter_;
    uint64_t start_;
    bool outer_ = false;
  };

  /// Inner guards backing the outer guards a client holds. An operation
  /// runs on one client thread from start to end, so a guard is always
  /// released by the thread that pinned it, usually in LIFO order.
  struct PinStack {
    std::vector<rum::PageReadGuard> reads;
    std::vector<rum::PageWriteGuard> writes;
  };

  /// Removes and returns the newest held guard for `page` (an empty guard
  /// when none is held).
  template <typename Guard>
  static Guard TakeNewest(std::vector<Guard>* held, rum::PageId page) {
    for (size_t i = held->size(); i-- > 0;) {
      if ((*held)[i].page() == page) {
        Guard g = std::move((*held)[i]);
        held->erase(held->begin() + static_cast<std::ptrdiff_t>(i));
        return g;
      }
    }
    return Guard();
  }

  rum::Device* base_;  // Not owned.
  const Position position_;
  PerClient<PinStack> pins_;
  PerClient<DeviceTally> tally_;
};

}  // namespace rumbench

#endif  // RUMBENCH_LAYERS_H_

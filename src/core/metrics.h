#ifndef RUMLAB_CORE_METRICS_H_
#define RUMLAB_CORE_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rum {

/// A log-bucketed latency/size histogram (HDR-style): values bucket by their
/// power of two, with `kSubBuckets` linear sub-buckets per power, so relative
/// error is bounded by 1/kSubBuckets across the whole 64-bit range while the
/// footprint stays a few KB. Record() is a handful of bit operations -- cheap
/// enough for a per-operation hot loop.
///
/// Threading: a histogram instance is single-writer (one worker records into
/// its own copy); Merge() combines per-worker histograms after a
/// happens-before edge (thread join), exactly like RumCounters shards.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBits;  // 16
  /// Buckets 0..kSubBuckets-1 are exact; each higher power of two adds
  /// kSubBuckets linear sub-buckets: (64 - kSubBits) * 16 + 16 slots total.
  static constexpr size_t kBucketCount = (64 - kSubBits + 1) * kSubBuckets;

  /// Records one value (nanoseconds, bytes, ... any uint64 measure).
  void Record(uint64_t value) {
    ++buckets_[BucketIndex(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
    if (count_ == 1 || value < min_) min_ = value;
  }

  /// Records `value` `count` times: the same state as `count` Record(value)
  /// calls (sum_ wraps identically), in O(1).
  void Record(uint64_t value, uint64_t count) {
    if (count == 0) return;
    buckets_[BucketIndex(value)] += count;
    if (count_ == 0 || value < min_) min_ = value;
    count_ += count;
    sum_ += value * count;
    if (value > max_) max_ = value;
  }

  /// Folds another histogram into this one (exact: buckets add).
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile `q` in [0, 1]: the lower bound of the bucket holding
  /// the q-th sample, so results are deterministic and never overstate.
  uint64_t Percentile(double q) const;

  /// The p999 tail (Percentile(0.999)): the quantile SLO guards watch.
  /// p99 hides one-in-a-thousand stalls (a compaction, a retry storm); at
  /// millions of requests those are every-second events.
  uint64_t p999() const { return Percentile(0.999); }

  /// Number of recorded samples whose bucket lower bound is <= `value` --
  /// i.e. samples that met a `value`-shaped SLO, up to bucket granularity
  /// (relative error bounded by 1/kSubBuckets, never undercounting a sample
  /// whose true value met the SLO). Deterministic.
  uint64_t CountAtOrBelow(uint64_t value) const;

  /// {"count":N,"mean":...,"min":...,"p50":...,"p95":...,"p99":...,
  ///  "p999":...,"max":...}
  std::string ToJson() const;

  /// Maps a value to its bucket (exposed for tests).
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    int exp = std::bit_width(value) - 1;  // >= kSubBits
    size_t group = static_cast<size_t>(exp) - kSubBits + 1;
    size_t sub = static_cast<size_t>(value >> (exp - kSubBits)) - kSubBuckets;
    return group * kSubBuckets + sub;
  }

  /// Smallest value that lands in bucket `index` (exposed for tests).
  static uint64_t BucketLowerBound(size_t index) {
    if (index < kSubBuckets) return index;
    size_t group = index / kSubBuckets;
    size_t sub = index % kSubBuckets;
    return (kSubBuckets + sub) << (group - 1);
  }

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// A process-wide registry of named observability instruments, exported as
/// one JSON document (wired into the bench binaries and rum_explorer).
///
/// Two instrument shapes:
///  - *Owned counters*: monotone atomics the registry allocates and never
///    frees, for cross-cutting counts with no natural home (e.g. the
///    ShardedMethod stats-merge tally the sampling-regression test watches).
///    FindOrCreateCounter is always available, registry enabled or not.
///  - *Callback instruments* (gauges/histograms): closures registered by a
///    device or method instance that sample its internal state at export
///    time, so hot paths carry no extra writes. Instances register only
///    while the registry is enabled (set_enabled precedes stack
///    construction) and must unregister before they die -- MetricsGroup
///    below does both.
///
/// Thread safety: one mutex guards the instrument tables; owned counters are
/// atomics touchable without it. ToJson() invokes callbacks under the mutex,
/// so callbacks may take their owner's lock but must never call back into
/// the registry.
class MetricsRegistry {
 public:
  /// The process-wide registry every layer registers into.
  static MetricsRegistry& Global();

  class Counter {
   public:
    void Increment(uint64_t n = 1) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> value_{0};
  };

  /// Master switch for callback-instrument registration. Off (the default),
  /// Register* calls are no-ops returning 0, so casual method construction
  /// (benches, tests) does not accumulate dead instruments.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Returns the counter named `name`, creating it on first use. The pointer
  /// stays valid for the life of the process.
  Counter* FindOrCreateCounter(const std::string& name);

  /// Registers a callback instrument; returns an id for Unregister (0 when
  /// the registry is disabled). Names need not be unique -- callers that
  /// want per-instance names use InstanceName().
  uint64_t RegisterGauge(std::string name, std::function<uint64_t()> fn);
  uint64_t RegisterHistogram(std::string name,
                             std::function<LatencyHistogram()> fn);
  void Unregister(uint64_t id);

  /// "prefix[k]" with k a process-unique sequence per prefix, so two caches
  /// in one stack export distinguishable instruments.
  std::string InstanceName(std::string_view prefix);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// keys sorted for deterministic output.
  std::string ToJson() const;

 private:
  MetricsRegistry() = default;

  struct GaugeEntry {
    uint64_t id;
    std::string name;
    std::function<uint64_t()> fn;
  };
  struct HistogramEntry {
    uint64_t id;
    std::string name;
    std::function<LatencyHistogram()> fn;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramEntry> histograms_;
  std::vector<std::pair<std::string, uint64_t>> instance_seq_;
  uint64_t next_id_ = 1;
};

/// RAII bundle of callback instruments owned by one object. Declare it as
/// the LAST member of the owning class so it unregisters (on destruction)
/// before the state its callbacks read is torn down.
class MetricsGroup {
 public:
  MetricsGroup() = default;
  ~MetricsGroup() { Reset(); }
  MetricsGroup(const MetricsGroup&) = delete;
  MetricsGroup& operator=(const MetricsGroup&) = delete;

  /// Claims an instance name under `prefix` if the registry is enabled;
  /// otherwise the group stays inert and Gauge()/Histogram() are no-ops.
  void Init(std::string_view prefix);
  bool active() const { return !instance_.empty(); }

  /// Registers "<instance>.<name>" reading `fn` at export time.
  void Gauge(std::string_view name, std::function<uint64_t()> fn);
  void Histogram(std::string_view name, std::function<LatencyHistogram()> fn);

  /// Unregisters everything (also called by the destructor).
  void Reset();

 private:
  std::string instance_;
  std::vector<uint64_t> ids_;
};

}  // namespace rum

#endif  // RUMLAB_CORE_METRICS_H_

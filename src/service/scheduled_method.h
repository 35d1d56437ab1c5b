#ifndef RUMLAB_SERVICE_SCHEDULED_METHOD_H_
#define RUMLAB_SERVICE_SCHEDULED_METHOD_H_

#include <memory>
#include <string_view>

#include "core/access_method.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/spin_lock.h"
#include "service/admission.h"
#include "service/request.h"

namespace rum {

/// The closed-loop face of the service layer: an AccessMethod decorator
/// MakeAccessMethod installs when Options::service.enabled, so every
/// existing closed-loop driver (WorkloadRunner, tests, benches) goes through
/// the front door without changing a call site.
///
/// Closed-loop callers issue the next operation only after the previous one
/// returns, so the queue is empty at every arrival: batching and CoDel are
/// structurally inert (group commit and head-drop need a standing queue,
/// which only open-loop arrivals build -- see RunOpenLoop). What remains
/// active is the front-door token bucket (a shed returns
/// kResourceExhausted before storage is touched; the workload runner
/// tallies it as ErrorTally::shed) and the full ledger/latency accounting
/// on the virtual clock. Each call is accounted as a batch of one:
/// dispatch_overhead_us + op_cost_us (scan_cost_us for scans).
///
/// Pass-through contract: with the rate gate off (the default), every call
/// forwards to the inner method unchanged, so RUM accounting and returned
/// contents are byte-identical to the undecorated method -- saturation_test
/// pins this against a service-disabled run.
///
/// Threading: bookkeeping is guarded by one SpinLock (spin, then park);
/// the inner call happens OUTSIDE the lock, so partition-affine concurrent
/// workers keep their parallelism and the inner method's determinism
/// contract is untouched. Every request enters the lock twice (admission,
/// then accounting) for a few counter and histogram updates, a hold far
/// shorter than the futex sleep a contended std::mutex would pay. The
/// service ledger itself is exact under concurrency, but its latency
/// histograms interleave arbitrarily; the determinism contract for
/// scheduler statistics applies to single-threaded closed-loop runs and to
/// RunOpenLoop.
class ScheduledMethod : public AccessMethod, public KeyPartitioned {
 public:
  ScheduledMethod(std::unique_ptr<AccessMethod> inner,
                  const Options& options);

  /// Transparent: callers see the inner method's identity.
  std::string_view name() const override { return inner_->name(); }

  Status Insert(Key key, Value value) override;
  Status Update(Key key, Value value) override;
  Status Delete(Key key) override;
  Result<Value> Get(Key key) override;
  /// Batched reads pass the front door as ONE dispatch window of n requests
  /// (cost = dispatch_overhead_us + n * op_cost_us -- the batch amortizes
  /// the dispatch overhead), shed all-or-nothing by the rate gate, and
  /// counted in the ledger as n submitted/accepted/completed so the
  /// conservation identities are unchanged.
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::optional<Value>>* out) override;
  Status Scan(Key lo, Key hi, std::vector<Entry>* out) override;

  /// Bulk creation and flush are setup traffic, not request traffic: they
  /// bypass the front door entirely.
  Status BulkLoad(std::span<const Entry> entries) override {
    return inner_->BulkLoad(entries);
  }
  Status Flush() override { return inner_->Flush(); }

  size_t size() const override { return inner_->size(); }
  CounterSnapshot stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  // KeyPartitioned: forwarded so concurrent runs keep partition affinity.
  size_t partitions() const override;
  size_t PartitionOf(Key key) const override;

  /// Snapshot of the service ledger (copy taken under the lock).
  ServiceStats service_stats() const;

  AccessMethod* inner() { return inner_.get(); }

 private:
  /// Front-door admission + clock advance for one request; returns false
  /// when the request is shed. On true, `*cost_us` is the service time
  /// charged.
  bool Admit(bool is_scan, uint64_t* cost_us);
  /// Front-door admission for a MultiGet batch of `n` requests: the rate
  /// gate must supply n tokens or the whole batch is shed (all-or-nothing;
  /// a trial bucket keeps the real one untouched on shed).
  bool AdmitBatch(size_t n, uint64_t* cost_us);
  /// Post-call accounting for an admitted request.
  void Account(uint64_t cost_us, bool failed);
  /// Post-call accounting for an admitted batch of `n` requests.
  void AccountBatch(size_t n, uint64_t cost_us, bool failed);

  std::unique_ptr<AccessMethod> inner_;
  Options::Service opts_;

  mutable SpinLock mu_;  ///< Guards the three fields below.
  TokenBucket bucket_;
  uint64_t now_us_ = 0;
  ServiceStats stats_;

  MetricsGroup metrics_;  ///< Last member: unregisters before state dies.
};

}  // namespace rum

#endif  // RUMLAB_SERVICE_SCHEDULED_METHOD_H_

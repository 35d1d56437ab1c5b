#include "service/scheduled_method.h"

#include <mutex>
#include <utility>

#include "core/trace.h"

namespace rum {

ScheduledMethod::ScheduledMethod(std::unique_ptr<AccessMethod> inner,
                                 const Options& options)
    : inner_(std::move(inner)),
      opts_(options.service),
      bucket_(opts_.rate_ops_per_sec, opts_.rate_burst_ops) {
  metrics_.Init("scheduler");
  metrics_.Gauge("submitted", [this] {
    std::lock_guard<SpinLock> lock(mu_);
    return stats_.submitted;
  });
  metrics_.Gauge("shed", [this] {
    std::lock_guard<SpinLock> lock(mu_);
    return stats_.shed;
  });
  metrics_.Gauge("completed", [this] {
    std::lock_guard<SpinLock> lock(mu_);
    return stats_.completed;
  });
  metrics_.Histogram("total_us", [this] {
    std::lock_guard<SpinLock> lock(mu_);
    return stats_.total_us;
  });
}

size_t ScheduledMethod::partitions() const {
  auto* kp = dynamic_cast<const KeyPartitioned*>(inner_.get());
  return kp != nullptr ? kp->partitions() : 1;
}

size_t ScheduledMethod::PartitionOf(Key key) const {
  auto* kp = dynamic_cast<const KeyPartitioned*>(inner_.get());
  return kp != nullptr ? kp->PartitionOf(key) : 0;
}

ServiceStats ScheduledMethod::service_stats() const {
  std::lock_guard<SpinLock> lock(mu_);
  return stats_;
}

bool ScheduledMethod::Admit(bool is_scan, uint64_t* cost_us) {
  std::lock_guard<SpinLock> lock(mu_);
  ++stats_.submitted;
  uint64_t arrival = now_us_;
  if (opts_.admission && !bucket_.TryAcquire(arrival)) {
    ++stats_.shed;
    ++stats_.shed_rate_gate;
    Trace::Emit(TraceKind::kSchedShed, TraceOp::kNone, kInvalidPageId,
                DataClass::kBase, 0);
    return false;
  }
  ++stats_.accepted;
  // Closed loop: the caller waits for us, so the queue is empty, sojourn is
  // zero, and every call dispatches immediately as a batch of one.
  *cost_us = opts_.dispatch_overhead_us +
             (is_scan ? opts_.scan_cost_us : opts_.op_cost_us);
  now_us_ = arrival + *cost_us;
  ++stats_.batches;
  ++stats_.batched_ops;
  Trace::Emit(TraceKind::kSchedDispatch, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, 1);
  return true;
}

void ScheduledMethod::Account(uint64_t cost_us, bool failed) {
  std::lock_guard<SpinLock> lock(mu_);
  ++stats_.completed;
  if (failed) ++stats_.failed;
  stats_.queue_delay_us.Record(0);
  stats_.service_us.Record(cost_us);
  stats_.total_us.Record(cost_us);
  if (opts_.slo_us == 0 || cost_us <= opts_.slo_us) {
    ++stats_.completed_within_slo;
  }
  stats_.end_us = now_us_;
}

Status ScheduledMethod::Insert(Key key, Value value) {
  uint64_t cost = 0;
  if (!Admit(false, &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Status s = inner_->Insert(key, value);
  Account(cost, IsRequestFailure(RequestOp::kInsert, s));
  return s;
}

Status ScheduledMethod::Update(Key key, Value value) {
  uint64_t cost = 0;
  if (!Admit(false, &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Status s = inner_->Update(key, value);
  Account(cost, IsRequestFailure(RequestOp::kUpdate, s));
  return s;
}

Status ScheduledMethod::Delete(Key key) {
  uint64_t cost = 0;
  if (!Admit(false, &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Status s = inner_->Delete(key);
  Account(cost, IsRequestFailure(RequestOp::kDelete, s));
  return s;
}

Result<Value> ScheduledMethod::Get(Key key) {
  uint64_t cost = 0;
  if (!Admit(false, &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Result<Value> r = inner_->Get(key);
  Account(cost, IsRequestFailure(RequestOp::kGet, r.status()));
  return r;
}

bool ScheduledMethod::AdmitBatch(size_t n, uint64_t* cost_us) {
  std::lock_guard<SpinLock> lock(mu_);
  stats_.submitted += n;
  uint64_t arrival = now_us_;
  if (opts_.admission) {
    // All-or-nothing: draw the n tokens from a trial copy so a shed batch
    // leaves the real bucket untouched.
    TokenBucket trial = bucket_;
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i) ok = trial.TryAcquire(arrival);
    if (!ok) {
      stats_.shed += n;
      stats_.shed_rate_gate += n;
      Trace::Emit(TraceKind::kSchedShed, TraceOp::kNone, kInvalidPageId,
                  DataClass::kBase, 0);
      return false;
    }
    bucket_ = trial;
  }
  stats_.accepted += n;
  *cost_us = opts_.dispatch_overhead_us +
             static_cast<uint64_t>(n) * opts_.op_cost_us;
  now_us_ = arrival + *cost_us;
  ++stats_.batches;
  stats_.batched_ops += n;
  ++stats_.batched_reads;
  stats_.batch_size.Record(n);
  Trace::Emit(TraceKind::kSchedDispatch, TraceOp::kNone, kInvalidPageId,
              DataClass::kBase, n);
  return true;
}

void ScheduledMethod::AccountBatch(size_t n, uint64_t cost_us, bool failed) {
  std::lock_guard<SpinLock> lock(mu_);
  stats_.completed += n;
  if (failed) stats_.failed += n;
  stats_.queue_delay_us.Record(0, n);
  stats_.service_us.Record(cost_us, n);
  stats_.total_us.Record(cost_us, n);
  if (opts_.slo_us == 0 || cost_us <= opts_.slo_us) {
    stats_.completed_within_slo += n;
  }
  stats_.end_us = now_us_;
}

Status ScheduledMethod::MultiGet(std::span<const Key> keys,
                                 std::vector<std::optional<Value>>* out) {
  if (keys.empty()) {
    out->clear();
    return Status::OK();
  }
  uint64_t cost = 0;
  if (!AdmitBatch(keys.size(), &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Status s = inner_->MultiGet(keys, out);
  AccountBatch(keys.size(), cost, IsRequestFailure(RequestOp::kGet, s));
  return s;
}

Status ScheduledMethod::Scan(Key lo, Key hi, std::vector<Entry>* out) {
  uint64_t cost = 0;
  if (!Admit(true, &cost)) {
    return Status::ResourceExhausted("rate gate shed");
  }
  Status s = inner_->Scan(lo, hi, out);
  Account(cost, IsRequestFailure(RequestOp::kScan, s));
  return s;
}

}  // namespace rum

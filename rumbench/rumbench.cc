// rumbench: one closed-loop benchmark through the whole stack
//   BlockDevice -> CachingDevice -> access method [-> ShardedMethod]
//   -> ScheduledMethod
// on four seeded workloads. Every read is checked against a std::map oracle.
//
//   rumbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <path>]
//
// Both modes draw one operation stream from --seed before anything is
// timed. --trace 0 prints the end-to-end metrics, measured without
// decorators over kPasses replays of it. --trace 1 replays it twice, without
// and then with the timing decorators of layers.h, checks that both charged
// byte-identical RUM counters (serial workloads) and that the per-layer
// counts obey their identities, and prints the per-layer metrics. The last
// stdout line is one JSON object; --out also writes the full report (host
// fingerprint, every metric, sample counts) to the given path. Nothing else
// is written.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/memory_arbiter.h"
#include "core/access_method.h"
#include "core/options.h"
#include "layers.h"
#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/sharded/sharded_method.h"
#include "service/scheduled_method.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "workload.h"

namespace rumbench {
namespace {

// Passes of a --trace 0 run: each replays the run's one stream, 1/kPasses
// of the work, on a freshly set-up stack. Throughput and setup_s are
// medians over the passes.
constexpr int kPasses = 16;
// Bytes per memtable entry the LSM's memtable pool reports to the arbiter.
constexpr uint64_t kMemtableEntryBytes = 32;

[[noreturn]] void Fatal(const std::string& what, const rum::Status& s) {
  std::fprintf(stderr, "rumbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

void Check(const rum::Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what, s);
}

// ----------------------------------------------------------------- Stack

/// One fully built stack. Members are declared so that destruction runs
/// top-down: methods, then devices, then the arbiter they registered with.
struct Stack {
  std::unique_ptr<rum::MemoryArbiter> arbiter;
  rum::RumCounters bottom_counters;
  std::unique_ptr<rum::BlockDevice> block;
  std::unique_ptr<TimedDevice> below_cache;
  std::unique_ptr<rum::CachingDevice> cache;
  std::unique_ptr<TimedDevice> above_cache;
  std::unique_ptr<rum::ScheduledMethod> service;

  // Views into `service`.
  TimedMethod* under_service = nullptr;
  std::vector<TimedMethod*> under_sharded;
  std::vector<rum::LsmTree*> lsm;

  rum::Device* top_device() {
    return above_cache != nullptr ? static_cast<rum::Device*>(above_cache.get())
                                  : cache.get();
  }
};

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, bool traced) {
  auto st = std::make_unique<Stack>();
  rum::Options options;  // 4 KiB blocks, library defaults elsewhere.
  if (spec.arbiter) {
    // The static shape the arbiter re-splits: cache pages, memtable and the
    // filter seed each LSM pool reports at registration.
    uint64_t budget =
        spec.cache_pages * options.block_size +
        options.lsm.memtable_entries * kMemtableEntryBytes +
        options.lsm.bloom_bits_per_key * options.lsm.memtable_entries / 8;
    st->arbiter = std::make_unique<rum::MemoryArbiter>(
        rum::MemoryArbiter::Config{.budget_bytes = budget});
    options.memory.enabled = true;
    options.memory.arbiter = st->arbiter.get();
  }
  st->block =
      std::make_unique<rum::BlockDevice>(options.block_size, &st->bottom_counters);
  rum::Device* under_cache = st->block.get();
  if (traced) {
    st->below_cache = std::make_unique<TimedDevice>(
        under_cache, TimedDevice::Position::kBelowCache);
    under_cache = st->below_cache.get();
  }
  st->cache = std::make_unique<rum::CachingDevice>(under_cache, spec.cache_pages,
                                                   st->arbiter.get());
  rum::Device* device = st->cache.get();
  if (traced) {
    st->above_cache = std::make_unique<TimedDevice>(
        device, TimedDevice::Position::kAboveCache);
    device = st->above_cache.get();
  }

  auto make_method = [&]() {
    std::unique_ptr<rum::AccessMethod> m =
        rum::MakeAccessMethod(spec.method, options, device);
    if (m == nullptr) {
      std::fprintf(stderr, "rumbench: cannot build method %s\n",
                   spec.method.c_str());
      std::exit(1);
    }
    if (auto* tree = dynamic_cast<rum::LsmTree*>(m.get())) {
      st->lsm.push_back(tree);
    }
    return m;
  };
  auto timed = [](std::unique_ptr<rum::AccessMethod> m, TimedMethod** view) {
    auto t = std::make_unique<TimedMethod>(std::move(m));
    *view = t.get();
    return std::unique_ptr<rum::AccessMethod>(std::move(t));
  };

  std::unique_ptr<rum::AccessMethod> method;
  if (spec.shards > 0) {
    std::vector<std::unique_ptr<rum::AccessMethod>> shards;
    for (size_t i = 0; i < spec.shards; ++i) {
      std::unique_ptr<rum::AccessMethod> m = make_method();
      if (traced) {
        TimedMethod* view = nullptr;
        m = timed(std::move(m), &view);
        st->under_sharded.push_back(view);
      }
      shards.push_back(std::move(m));
    }
    auto sharded = std::make_unique<rum::ShardedMethod>(
        "sharded-" + spec.method, std::move(shards));
    method = std::move(sharded);
  } else {
    method = make_method();
  }
  if (traced) method = timed(std::move(method), &st->under_service);

  // The service front door, rate gate off: a pass-through that still keeps
  // its ledger on every call.
  rum::Options service_options = options;
  service_options.service.enabled = true;
  st->service =
      std::make_unique<rum::ScheduledMethod>(std::move(method), service_options);
  return st;
}

/// Bulk load, warm-up inserts, flush. Returns the wall time in seconds.
double Setup(Stack* st, const std::vector<rum::Entry>& loaded,
             const std::vector<const std::vector<rum::Entry>*>& warmups) {
  uint64_t start = NowNs();
  Check(st->service->BulkLoad(loaded), "bulk load");
  for (const std::vector<rum::Entry>* warmup : warmups) {
    for (const rum::Entry& e : *warmup) {
      Check(st->service->Insert(e.key, e.value), "warm-up insert");
    }
  }
  Check(st->service->Flush(), "flush");
  Check(st->top_device()->FlushAll(), "device flush");
  return static_cast<double>(NowNs() - start) * 1e-9;
}

// ------------------------------------------------------------- Sampling

/// Everything the layers report, read at a quiescent point.
struct Sample {
  rum::CounterSnapshot bottom;
  rum::CounterSnapshot cache_level;
  rum::CounterSnapshot method;
  uint64_t hits = 0, misses = 0, evictions = 0, write_backs = 0;
  uint64_t live_pages = 0, method_size = 0;
  uint64_t flushes = 0, compactions = 0, compaction_records = 0;
  uint64_t bloom_fp = 0, bloom_neg = 0, relayouts = 0;
  uint64_t runs = 0, segments = 0, lsm_memory_bytes = 0;
  rum::MemorySplit split;
  uint64_t batched_page_hits = 0;
  // Traced stacks only.
  DeviceTally above, below;
  SpanTally under_service, under_sharded;
};

Sample TakeSample(const Stack& st) {
  Sample s;
  s.bottom = st.bottom_counters.snapshot();
  s.cache_level = st.cache->level_stats();
  s.method = st.service->stats();
  s.batched_page_hits = s.method.batched_page_hits;
  s.hits = st.cache->hits();
  s.misses = st.cache->misses();
  s.evictions = st.cache->evictions();
  s.write_backs = st.cache->write_backs();
  s.live_pages = st.block->live_pages();
  s.method_size = st.service->size();
  for (const rum::LsmTree* t : st.lsm) {
    s.flushes += t->flushes();
    s.compactions += t->compactions();
    s.compaction_records += t->compaction_input_records();
    s.bloom_fp += t->filter_stats().false_positives.load();
    s.bloom_neg += t->filter_stats().negatives.load();
    if (const rum::CrossRunIndex* index = t->cross_run_index()) {
      s.relayouts += index->relayouts();
      s.segments += index->segment_count();
    }
    s.runs += t->total_runs();
    rum::LsmMemoryFootprint fp = t->MemoryFootprint();
    s.lsm_memory_bytes += fp.total() - fp.run_page_bytes;
  }
  if (st.arbiter != nullptr) s.split = st.arbiter->split();
  if (st.above_cache != nullptr) s.above = st.above_cache->tally();
  if (st.below_cache != nullptr) s.below = st.below_cache->tally();
  if (st.under_service != nullptr) s.under_service = st.under_service->tally();
  for (const TimedMethod* m : st.under_sharded) s.under_sharded += m->tally();
  return s;
}

void AppendSnapshot(const rum::CounterSnapshot& a, const rum::CounterSnapshot& b,
                    std::vector<uint64_t>* out) {
  rum::CounterSnapshot d = a - b;
  out->insert(out->end(),
              {d.bytes_read_base, d.bytes_read_aux, d.bytes_written_base,
               d.bytes_written_aux, d.blocks_read, d.blocks_written,
               d.space_base, d.space_aux, d.logical_bytes_read,
               d.logical_bytes_written, d.point_queries, d.range_queries,
               d.inserts, d.updates, d.deletes, d.batched_page_hits,
               d.io_errors, d.retries});
}

/// The RUM charges of every layer between two samples (levels taken at `a`).
std::vector<uint64_t> RumDelta(const Sample& a, const Sample& b) {
  std::vector<uint64_t> v;
  AppendSnapshot(a.bottom, b.bottom, &v);
  AppendSnapshot(a.cache_level, b.cache_level, &v);
  AppendSnapshot(a.method, b.method, &v);
  v.insert(v.end(),
           {a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
            a.write_backs - b.write_backs, a.live_pages, a.method_size,
            a.flushes - b.flushes, a.compactions - b.compactions,
            a.compaction_records - b.compaction_records,
            a.bloom_fp - b.bloom_fp, a.bloom_neg - b.bloom_neg,
            a.relayouts - b.relayouts, a.runs, a.segments, a.lsm_memory_bytes,
            a.split.cache_bytes, a.split.memtable_bytes, a.split.filter_bytes,
            a.split.replans});
  return v;
}

// --------------------------------------------------------------- Clients

enum LatencyClass { kGetLat, kMultiGetLat, kWriteLat, kScanLat, kLatClasses };

struct ClientStats {
  /// Every call's latency, in call order; a run's work is fixed, so is
  /// this memory.
  std::array<std::vector<uint32_t>, kLatClasses> latency_ns;
  uint64_t calls = 0;
  uint64_t key_ops = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t client_ns = 0;
  uint64_t logical_read_bytes = 0;
  uint64_t stall_ns = 0;
};

/// Totals at a point in the run (for the fixed-work RUM window).
struct Progress {
  uint64_t calls = 0, key_ops = 0, writes = 0, logical_read_bytes = 0;
  uint64_t client_ns = 0;
};

void Record(ClientStats* cs, LatencyClass c, uint64_t ns) {
  cs->latency_ns[c].push_back(
      static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  cs->client_ns += ns;
}

/// Replays one chunk, closed loop: each call starts when the previous
/// one returned. Results are checked after the clock stops. With
/// `stall_tree` set, write calls during which it compacted add their
/// latency to stall_ns.
void RunChunk(const Chunk& chunk, size_t multiget_keys, rum::AccessMethod* top,
              const rum::LsmTree* stall_tree, ClientStats* cs) {
  std::vector<std::optional<rum::Value>> multiget_out;
  std::vector<rum::Entry> scan_out;
  for (const Op& op : chunk.ops) {
    bool ok = false;
    ++cs->calls;
    switch (op.kind) {
      case OpKind::kGet: {
        uint64_t t0 = NowNs();
        rum::Result<rum::Value> r = top->Get(op.key);
        Record(cs, kGetLat, NowNs() - t0);
        ++cs->key_ops;
        if (r.ok()) {
          ok = op.found && r.value() == op.value;
          cs->logical_read_bytes += rum::kEntrySize;
        } else {
          ok = !op.found && r.status().IsNotFound();
        }
        break;
      }
      case OpKind::kMultiGet: {
        std::span<const rum::Key> keys(
            chunk.multiget_keys.data() + op.multiget_begin, multiget_keys);
        uint64_t t0 = NowNs();
        rum::Status s = top->MultiGet(keys, &multiget_out);
        Record(cs, kMultiGetLat, NowNs() - t0);
        cs->key_ops += keys.size();
        uint64_t h = 0;
        for (const std::optional<rum::Value>& v : multiget_out) {
          h = v.has_value() ? Fold(Fold(h, 1), *v) : Fold(h, kAbsent);
          if (v.has_value()) cs->logical_read_bytes += rum::kEntrySize;
        }
        ok = s.ok() && multiget_out.size() == keys.size() && h == op.digest;
        break;
      }
      case OpKind::kScan: {
        scan_out.clear();
        uint64_t t0 = NowNs();
        rum::Status s = top->Scan(op.key, op.hi, &scan_out);
        Record(cs, kScanLat, NowNs() - t0);
        ++cs->key_ops;
        uint64_t h = 0;
        for (const rum::Entry& e : scan_out) h = Fold(Fold(h, e.key), e.value);
        cs->logical_read_bytes += scan_out.size() * rum::kEntrySize;
        ok = s.ok() && Fold(h, scan_out.size()) == op.digest;
        break;
      }
      case OpKind::kInsert:
      case OpKind::kUpdate:
      case OpKind::kDelete: {
        uint64_t compactions =
            stall_tree != nullptr ? stall_tree->compactions() : 0;
        uint64_t t0 = NowNs();
        rum::Status s = op.kind == OpKind::kInsert
                            ? top->Insert(op.key, op.value)
                        : op.kind == OpKind::kUpdate
                            ? top->Update(op.key, op.value)
                            : top->Delete(op.key);
        uint64_t ns = NowNs() - t0;
        Record(cs, kWriteLat, ns);
        if (stall_tree != nullptr && stall_tree->compactions() != compactions) {
          cs->stall_ns += ns;
        }
        ++cs->key_ops;
        ++cs->writes;
        ok = s.ok();
        break;
      }
    }
    if (!ok) ++cs->failed;
  }
}

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to `cpu` (no-op for -1 or on failure).
void PinToCpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Persistent client threads, released one round (chunk) at a time. Each
/// client is pinned to its own CPU: unpinned, the scheduler's placement
/// flips the shared-cache lock between a convoy and a fast hand-off regime
/// from run to run, which no code change caused.
class ClientThreads {
 public:
  ClientThreads(size_t clients, std::function<void(size_t)> work)
      : work_(std::move(work)), sync_(static_cast<std::ptrdiff_t>(clients + 1)) {
    std::vector<int> cpus = AllowedCpus();
    for (size_t c = 0; c < clients; ++c) {
      threads_.emplace_back([this, c, cpus] {
        client_slot = c;
        PinToCpu(cpus.empty() ? -1 : cpus[c % cpus.size()]);
        while (true) {
          sync_.arrive_and_wait();
          if (stop_) return;
          work_(c);
          sync_.arrive_and_wait();
        }
      });
    }
  }
  ~ClientThreads() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  /// Runs one round on every client; returns its wall time.
  uint64_t Round() {
    uint64_t start = NowNs();
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
    return NowNs() - start;
  }

 private:
  std::function<void(size_t)> work_;
  std::barrier<> sync_;
  bool stop_ = false;  // Written before a barrier phase the workers read after.
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------------ Pass

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct PassResult {
  double setup_s = 0;
  size_t chunks = 0;
  double timed_s = 0;
  std::vector<ClientStats> clients;
  /// Process peak RSS: set-up plus the whole pass.
  double peak_rss_mb = 0;
  /// `pre_flush` is taken after the last chunk, `end` after the final
  /// FlushAll.
  Sample start, pre_flush, end;

  Progress Total() const {
    Progress p;
    for (const ClientStats& c : clients) {
      p.calls += c.calls;
      p.key_ops += c.key_ops;
      p.writes += c.writes;
      p.logical_read_bytes += c.logical_read_bytes;
      p.client_ns += c.client_ns;
    }
    return p;
  }
  uint64_t failed() const {
    uint64_t f = 0;
    for (const ClientStats& c : clients) f += c.failed;
    return f;
  }
};

/// The key ownership of client `c` of `clients` over a partitioned key
/// space: partitions p with p % clients == c.
std::function<bool(rum::Key)> Owner(const rum::KeyPartitioned* partitioner,
                                    size_t clients, size_t c) {
  if (clients == 1) return [](rum::Key) { return true; };
  return [partitioner, clients, c](rum::Key key) {
    return partitioner->PartitionOf(key) % clients == c;
  };
}

struct RunInputs {
  const WorkloadSpec* spec;
  uint64_t seed;
  std::vector<rum::Entry> loaded;
  /// Routes keys exactly as the stack's ShardedMethod does.
  std::unique_ptr<rum::AccessMethod> router;
};

std::vector<std::unique_ptr<StreamGenerator>> MakeGenerators(
    const RunInputs& in, uint64_t seed) {
  std::vector<std::unique_ptr<StreamGenerator>> gens;
  auto* partitioner = dynamic_cast<const rum::KeyPartitioned*>(in.router.get());
  for (size_t c = 0; c < in.spec->clients; ++c) {
    gens.push_back(std::make_unique<StreamGenerator>(
        *in.spec, seed, c, in.loaded,
        Owner(partitioner, in.spec->clients, c)));
  }
  return gens;
}

/// Chunks a pass runs: the workload's nominal call rate times `seconds`.
size_t ChunksFor(const WorkloadSpec& spec, double seconds) {
  double calls = seconds * static_cast<double>(spec.nominal_calls_per_s);
  double per_chunk = static_cast<double>(spec.chunk_ops * spec.clients);
  return std::max<size_t>(1, static_cast<size_t>(std::llround(calls / per_chunk)));
}

/// A whole operation stream: stream[k][c] is chunk k of client c.
using Stream = std::vector<std::vector<Chunk>>;

/// Draws `chunks` chunks per client, off the clock.
Stream Generate(const std::vector<std::unique_ptr<StreamGenerator>>& gens,
                size_t chunks) {
  Stream stream(chunks, std::vector<Chunk>(gens.size()));
  for (std::vector<Chunk>& row : stream) {
    for (size_t c = 0; c < gens.size(); ++c) gens[c]->Fill(&row[c]);
  }
  return stream;
}

/// Runs `stream` on `st` in a closed loop, then flushes the cache.
PassResult RunPass(const WorkloadSpec& spec, Stack* st, double setup_s,
                   const Stream& stream) {
  PassResult r;
  r.setup_s = setup_s;
  r.clients.resize(spec.clients);
  const rum::LsmTree* stall_tree =
      st->above_cache != nullptr && st->lsm.size() == 1 ? st->lsm[0] : nullptr;
  const std::vector<Chunk>* row = nullptr;
  auto work = [&](size_t c) {
    RunChunk((*row)[c], spec.multiget_keys, st->service.get(), stall_tree,
             &r.clients[c]);
  };
  std::unique_ptr<ClientThreads> threads;
  if (spec.clients > 1) {
    threads = std::make_unique<ClientThreads>(spec.clients, work);
  }

  r.start = TakeSample(*st);
  uint64_t timed_ns = 0;
  for (; r.chunks < stream.size(); ++r.chunks) {
    row = &stream[r.chunks];
    if (threads != nullptr) {
      timed_ns += threads->Round();
    } else {
      uint64_t t0 = NowNs();
      work(0);
      timed_ns += NowNs() - t0;
    }
  }
  r.timed_s = static_cast<double>(timed_ns) * 1e-9;
  // Write everything back so write_amp counts every byte, then read every
  // layer. Off the clock.
  r.pre_flush = TakeSample(*st);
  Check(st->top_device()->FlushAll(), "final flush");
  r.end = TakeSample(*st);
  r.peak_rss_mb = PeakRssMb();
  return r;
}

// --------------------------------------------------------------- Metrics

/// The q-quantile of `v`, interpolating between order statistics.
double Quantile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  double pos = q * static_cast<double>(v->size() - 1);
  size_t i = static_cast<size_t>(pos);
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(i),
                   v->end());
  double lo = (*v)[i];
  if (i + 1 >= v->size()) return lo;
  double hi = *std::min_element(v->begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                v->end());
  return lo + (pos - static_cast<double>(i)) * (hi - lo);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Printed in the report only (sample counts).
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// End-to-end metrics of `passes`, each a replay of the same stream on the
/// same starting state, so replays differ only in what the host did to
/// them. On a shared host that changes in stretches of seconds to minutes,
/// slowing whole replays by up to a third, so the throughput is the median
/// over the replays of each one's rate. Latency percentiles pool every
/// replay's samples.
std::vector<Metric> EndToEndMetrics(const std::vector<PassResult>& passes) {
  std::vector<Metric> m;
  const PassResult& first = passes.front();
  std::vector<double> pass_rates;
  std::array<std::vector<uint32_t>, kLatClasses> lat;
  for (const PassResult& p : passes) {
    pass_rates.push_back(
        Ratio(static_cast<double>(p.Total().key_ops), p.timed_s));
    for (const ClientStats& c : p.clients) {
      for (int k = 0; k < kLatClasses; ++k) {
        lat[k].insert(lat[k].end(), c.latency_ns[k].begin(),
                      c.latency_ns[k].end());
      }
    }
  }
  std::string chunks = std::to_string(passes.size()) + " replays x " +
                       std::to_string(first.chunks) + " chunks";
  std::string per_pass;
  for (double r : pass_rates) {
    per_pass += ' ';
    per_pass += Num(std::round(r));
  }
  m.push_back({"throughput_ops_s", Median(pass_rates), "ops/s",
               chunks + "; per replay:" + per_pass});
  const char* names[kLatClasses] = {"get", "multiget", "write", "scan"};
  for (int k = 0; k < kLatClasses; ++k) {
    if (lat[k].empty()) continue;
    std::string n = "samples=" + std::to_string(lat[k].size()) + " (" +
                    chunks + ")";
    m.push_back({std::string(names[k]) + "_p50_us",
                 Quantile(&lat[k], 0.50) * 1e-3, "us", n});
    m.push_back({std::string(names[k]) + "_p99_us",
                 Quantile(&lat[k], 0.99) * 1e-3, "us", n});
  }
  std::vector<double> read_amp, write_amp, space_amp, setup_s;
  uint64_t failed = 0, calls = 0;
  for (const PassResult& r : passes) {
    const Sample& a = r.end;
    const Sample& b = r.start;
    Progress p = r.Total();
    read_amp.push_back(Ratio(static_cast<double>(a.bottom.total_bytes_read() -
                                                 b.bottom.total_bytes_read()),
                             static_cast<double>(p.logical_read_bytes)));
    write_amp.push_back(
        Ratio(static_cast<double>(a.bottom.total_bytes_written() -
                                  b.bottom.total_bytes_written()),
              static_cast<double>(p.writes * rum::kEntrySize)));
    space_amp.push_back(
        Ratio(static_cast<double>(a.live_pages * rum::Options().block_size +
                                  a.lsm_memory_bytes),
              static_cast<double>(a.method_size * rum::kEntrySize)));
    setup_s.push_back(r.setup_s);
    failed += r.failed();
    calls += p.calls;
  }
  std::string window = "median over passes of " +
                       std::to_string(first.Total().calls) + " calls";
  m.push_back({"read_amp", Median(read_amp), "ratio", window});
  m.push_back({"write_amp", Median(write_amp), "ratio",
               window + ", after FlushAll"});
  m.push_back({"space_amp", Median(space_amp), "ratio",
               "live entries=" + std::to_string(first.end.method_size)});
  m.push_back({"setup_s", Median(setup_s), "s",
               "median of " + std::to_string(passes.size()) + " set-ups"});
  m.push_back({"peak_rss_mb", passes.back().peak_rss_mb, "MB", ""});
  m.push_back({"failed_frac",
               Ratio(static_cast<double>(failed), static_cast<double>(calls)),
               "ratio", "failed=" + std::to_string(failed)});
  return m;
}

struct TraceChecks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec,
                                    const PassResult& untraced,
                                    const PassResult& traced,
                                    TraceChecks* checks) {
  const Sample& s0 = traced.start;
  const Sample& s1 = traced.end;
  const uint64_t block = rum::Options().block_size;
  Progress total = traced.Total();
  double ops = static_cast<double>(total.key_ops);

  // Counts: the whole pass, final flush included.
  DeviceTally above = s1.above - s0.above;
  DeviceTally below = s1.below - s0.below;
  uint64_t hits = s1.hits - s0.hits, misses = s1.misses - s0.misses;
  uint64_t write_backs = s1.write_backs - s0.write_backs;
  uint64_t bottom_read = s1.bottom.total_bytes_read() - s0.bottom.total_bytes_read();
  uint64_t bottom_written =
      s1.bottom.total_bytes_written() - s0.bottom.total_bytes_written();
  checks->Expect(above.reads == hits + misses,
                 "reads above the cache != hits + misses");
  checks->Expect(below.reads == misses, "reads below the cache != misses");
  checks->Expect(below.writes == write_backs,
                 "writes below the cache != write-backs");
  checks->Expect(below.reads * block == bottom_read,
                 "bytes read below the cache != bottom-device bytes read");
  checks->Expect(below.writes * block == bottom_written,
                 "bytes written below the cache != bottom-device bytes written");

  // Times: operations only (the final flush is not one).
  auto op_time = [&](auto get) { return get(traced.pre_flush) - get(s0); };
  DeviceTally above_t = op_time([](const Sample& s) { return s.above; });
  DeviceTally below_t = op_time([](const Sample& s) { return s.below; });
  SpanTally service_t = op_time([](const Sample& s) { return s.under_service; });
  SpanTally sharded_t = op_time([](const Sample& s) { return s.under_sharded; });
  int64_t client_ns = static_cast<int64_t>(total.client_ns);
  int64_t method_ns = static_cast<int64_t>(spec.shards > 0 ? sharded_t.ns
                                                           : service_t.ns);
  int64_t below_nested = static_cast<int64_t>(below_t.ns - below_t.direct_ns);
  int64_t service_self = client_ns - static_cast<int64_t>(service_t.ns);
  int64_t sharded_self = spec.shards > 0 ? static_cast<int64_t>(service_t.ns) -
                                               static_cast<int64_t>(sharded_t.ns)
                                         : 0;
  int64_t method_self = method_ns - static_cast<int64_t>(above_t.ns) -
                        static_cast<int64_t>(below_t.direct_ns);
  int64_t cache_self = static_cast<int64_t>(above_t.ns) - below_nested;
  int64_t device_ns = static_cast<int64_t>(below_t.ns);
  for (auto [v, name] : {std::pair{service_self, "service"},
                         std::pair{sharded_self, "sharded"},
                         std::pair{method_self, "method"},
                         std::pair{cache_self, "cache"}}) {
    checks->Expect(v >= 0, std::string(name) + " self time is negative");
  }
  int64_t self_sum =
      service_self + sharded_self + method_self + cache_self + device_ns;
  checks->Expect(self_sum == client_ns,
                 "layer self times do not sum to the traced op time");

  Progress base = untraced.Total();
  double overhead =
      1 - Ratio(ops / traced.timed_s,
                static_cast<double>(base.key_ops) / untraced.timed_s);
  // The traced decomposition, scaled back by the tracing overhead, must
  // explain the untraced per-op time.
  double untraced_per_op = Ratio(static_cast<double>(base.client_ns),
                                 static_cast<double>(base.key_ops));
  double explained = static_cast<double>(self_sum) / ops * (1 - overhead);
  checks->Expect(std::fabs(explained - untraced_per_op) <= 0.15 * untraced_per_op,
                 "traced self times, less tracing overhead, miss the "
                 "untraced op time by more than 15%: " + Num(explained) +
                     " vs " + Num(untraced_per_op) + " ns/op");

  uint64_t fp = s1.bloom_fp - s0.bloom_fp, neg = s1.bloom_neg - s0.bloom_neg;
  uint64_t multiget_keys = 0;
  for (const ClientStats& c : traced.clients) {
    multiget_keys += c.latency_ns[kMultiGetLat].size() * spec.multiget_keys;
  }
  uint64_t stall_ns = 0;
  for (const ClientStats& c : traced.clients) stall_ns += c.stall_ns;
  double budget = static_cast<double>(s1.split.budget_bytes);
  auto per_op = [&](double v) { return Ratio(v, ops); };

  std::vector<Metric> m = {
      {"service.self_ns_per_op", per_op(service_self), "ns", ""},
      {"method.self_ns_per_op", per_op(method_self), "ns", ""},
      {"method.cache_calls_per_op", per_op(above.reads + above.writes), "count",
       ""},
      {"multiget.batched_page_hits_per_key",
       Ratio(s1.batched_page_hits - s0.batched_page_hits, multiget_keys),
       "count", ""},
      {"sharded.self_ns_per_op", per_op(sharded_self), "ns", ""},
      {"lsm.flushes", static_cast<double>(s1.flushes - s0.flushes), "count", ""},
      {"lsm.compactions", static_cast<double>(s1.compactions - s0.compactions),
       "count", ""},
      {"lsm.compaction_records_per_write",
       Ratio(s1.compaction_records - s0.compaction_records, total.writes),
       "count", ""},
      {"lsm.compaction_stall_ms", static_cast<double>(stall_ns) * 1e-6, "ms",
       ""},
      {"lsm.bloom_fp_rate", Ratio(fp, fp + neg), "ratio", ""},
      {"lsm.runs_total", static_cast<double>(s1.runs), "count", ""},
      {"lsm.cross_run_segments", static_cast<double>(s1.segments), "count", ""},
      {"lsm.cross_run_relayouts",
       static_cast<double>(s1.relayouts - s0.relayouts), "count", ""},
      {"cache.hit_rate", Ratio(hits, hits + misses), "ratio", ""},
      {"cache.evictions_per_op", per_op(s1.evictions - s0.evictions), "count",
       ""},
      {"cache.write_backs_per_op", per_op(write_backs), "count", ""},
      {"cache.self_ns_per_call",
       Ratio(cache_self, above_t.calls()), "ns", ""},
      {"device.reads_per_op", per_op(below.reads), "count", ""},
      {"device.writes_per_op", per_op(below.writes), "count", ""},
      {"device.ns_per_call", Ratio(below_t.ns, below_t.calls()), "ns", ""},
      {"device.read_amp",
       Ratio(bottom_read, total.logical_read_bytes), "ratio", ""},
      {"arbiter.replans",
       static_cast<double>(s1.split.replans - s0.split.replans), "count", ""},
      {"arbiter.cache_share", Ratio(s1.split.cache_bytes, budget), "ratio", ""},
      {"arbiter.memtable_share", Ratio(s1.split.memtable_bytes, budget),
       "ratio", ""},
      {"trace.overhead_frac", overhead, "ratio", ""},
  };
  return m;
}

// ----------------------------------------------------------------- Host

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

// ----------------------------------------------------------------- Main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rumbench: %s\nusage: rumbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <path>]\nworkloads:",
               why);
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (FindWorkload(a.workload) == nullptr) Usage("unknown or missing --workload");
  return a;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  RunInputs in;
  in.spec = FindWorkload(args.workload);
  in.seed = args.seed;
  const WorkloadSpec& spec = *in.spec;
  in.loaded = LoadEntries(spec);
  if (spec.shards > 0) {
    rum::Options options;
    options.sharded.shards = spec.shards;
    in.router = rum::MakeAccessMethod("sharded-skiplist", options);
  }

  std::string host = "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                     " cpu=" + JsonString(CpuModel()) +
                     " build=" RUMBENCH_BUILD_TYPE " compiler=" __VERSION__;
  std::printf("rumbench workload=%s seed=%" PRIu64 " seconds=%s trace=%d\n",
              spec.name.c_str(), args.seed, Num(args.seconds).c_str(),
              args.trace);
  std::printf("host %s\n", host.c_str());
  std::printf("stack %s%s%s, cache %zu pages, %zu client(s), %zu entries "
              "loaded\n",
              spec.shards > 0 ? ("sharded-" + spec.method + " x" +
                                 std::to_string(spec.shards))
                                    .c_str()
                              : spec.method.c_str(),
              spec.arbiter ? " + memory arbiter" : "",
              " under ScheduledMethod", spec.cache_pages, spec.clients,
              spec.load_entries);
  std::printf("why %s\n", spec.why.c_str());

  auto warmups = [](const std::vector<std::unique_ptr<StreamGenerator>>& g) {
    std::vector<const std::vector<rum::Entry>*> w;
    for (const auto& gen : g) w.push_back(&gen->warmup());
    return w;
  };

  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0;
  // The work of one pass, drawn once and replayed by every pass.
  auto gens = MakeGenerators(in, in.seed);
  const std::vector<const std::vector<rum::Entry>*> warm = warmups(gens);
  const Stream stream = Generate(gens, ChunksFor(spec, args.seconds / kPasses));
  auto pass = [&](bool traced) {
    auto st = BuildStack(spec, traced);
    double setup_s = Setup(st.get(), in.loaded, warm);
    return RunPass(spec, st.get(), setup_s, stream);
  };
  if (args.trace == 0) {
    std::vector<PassResult> passes;
    for (int i = 0; i < kPasses; ++i) {
      passes.push_back(pass(/*traced=*/false));
      attempted += passes.back().Total().calls;
      failed += passes.back().failed();
    }
    metrics = EndToEndMetrics(passes);
  } else {
    // Untraced, then traced.
    PassResult plain = pass(/*traced=*/false);
    PassResult traced = pass(/*traced=*/true);
    attempted = plain.Total().calls + traced.Total().calls;
    failed = plain.failed() + traced.failed();

    TraceChecks checks;
    if (spec.clients == 1) {
      // Serial workloads replay exactly: the decorators must not change a
      // single charge anywhere in the stack.
      checks.Expect(RumDelta(plain.pre_flush, plain.start) ==
                        RumDelta(traced.pre_flush, traced.start),
                    "RUM deltas differ with tracing on (before the flush)");
      checks.Expect(RumDelta(plain.end, plain.start) ==
                        RumDelta(traced.end, traced.start),
                    "RUM deltas differ with tracing on (after the flush)");
    }
    metrics = PerLayerMetrics(spec, plain, traced, &checks);
    failures = checks.failures;
  }

  bool correct = failed == 0 && failures.empty();
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %-22s %-6s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }

  // The JSON result carries the metrics BENCHMARK.json names: per-layer
  // ones when traced; end-to-end ones otherwise, minus those a workload may
  // leave at zero or never call, and the latency percentiles, which spread
  // too far from run to run to hold a bound (reported above only; see
  // README.md).
  static const char* kReportOnly[] = {
      "get_p50_us",      "get_p99_us",      "write_p50_us", "write_p99_us",
      "multiget_p50_us", "multiget_p99_us", "scan_p50_us",  "scan_p99_us",
      "read_amp",        "failed_frac"};
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  std::string full = json;
  bool first = true, first_full = true;
  for (const Metric& m : metrics) {
    std::string entry = JsonString(m.name) + ": {\"value\": " + Num(m.value) +
                        ", \"unit\": " + JsonString(m.unit) + "}";
    full += (first_full ? "" : ", ") + entry;
    first_full = false;
    if (std::find_if(std::begin(kReportOnly), std::end(kReportOnly),
                     [&](const char* n) { return m.name == n; }) !=
        std::end(kReportOnly)) {
      continue;
    }
    json += (first ? "" : ", ") + entry;
    first = false;
  }
  json += "}}";
  full += "}, \"workload\": " + JsonString(spec.name) +
          ", \"seed\": " + std::to_string(args.seed) +
          ", \"host\": " + JsonString(host) + "}";
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << full << "\n";
    if (!out) {
      std::fprintf(stderr, "rumbench: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rumbench

int main(int argc, char** argv) { return rumbench::Main(argc, argv); }

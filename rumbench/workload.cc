#include "workload.h"

#include <algorithm>

namespace rumbench {

namespace {

constexpr unsigned kKeyBits = 48;
constexpr uint64_t kKeyMask = (uint64_t{1} << kKeyBits) - 1;
constexpr size_t kMillion = 1'000'000;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec point;
  point.name = "point-hot";
  point.why =
      "btree that fits the cache, Zipfian Get/MultiGet/Update: method search, "
      "page codec and cache hits do the work; misses, device and compaction "
      "do none";
  point.method = "btree";
  point.cache_pages = 8192;
  point.load_entries = kMillion;
  point.mix = {.get = 85, .multiget = 10, .update = 5};
  point.zipfian = true;
  point.chunk_ops = 16384;
  point.nominal_calls_per_s = 350'000;
  all.push_back(point);

  WorkloadSpec ingest;
  ingest.name = "ingest-spill";
  ingest.why =
      "lsm-leveled under the memory arbiter with a cache 1/8 of the data: "
      "flushes, compaction, eviction, write-back and replans dominate";
  ingest.method = "lsm-leveled";
  ingest.cache_pages = 512;
  ingest.arbiter = true;
  ingest.load_entries = kMillion;
  ingest.mix = {.get = 25, .insert = 50, .update = 20, .del = 5};
  ingest.chunk_ops = 16384;
  ingest.nominal_calls_per_s = 300'000;
  all.push_back(ingest);

  WorkloadSpec scan;
  scan.name = "scan-spill";
  scan.why =
      "lsm-tiered with several runs and the cross-run index, 2 MiB cache: "
      "k-way merge, cross-run index and range-read misses dominate";
  scan.method = "lsm-tiered";
  scan.cache_pages = 512;
  scan.load_entries = kMillion;
  scan.warmup_inserts = 3 * 4096;
  scan.mix = {.get = 45, .insert = 10, .scan = 45};
  scan.chunk_ops = 4096;
  scan.nominal_calls_per_s = 120'000;
  all.push_back(scan);

  WorkloadSpec shared;
  shared.name = "shared-cache-4t";
  shared.why =
      "8-shard btree over one shared 512-page cache, 4 partition-affine "
      "clients: the only workload where shard locks and the cache mutex "
      "are contended";
  shared.method = "btree";
  shared.shards = 8;
  shared.clients = 4;
  shared.cache_pages = 512;
  shared.load_entries = kMillion;
  shared.mix = {.get = 55, .insert = 25, .update = 15, .del = 5};
  shared.chunk_ops = 2048;
  shared.nominal_calls_per_s = 140'000;
  all.push_back(shared);

  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

rum::Key KeyOf(uint64_t id) {
  // Odd multipliers and xor-shifts are each invertible modulo 2^48.
  uint64_t x = (id * 0x9E3779B97F4A7C15ULL) & kKeyMask;
  x ^= x >> 24;
  x = (x * 0xD6E8FEB86659FD93ULL) & kKeyMask;
  x ^= x >> 23;
  return x;
}

std::vector<rum::Entry> LoadEntries(const WorkloadSpec& spec) {
  std::vector<rum::Entry> entries;
  entries.reserve(spec.load_entries);
  for (uint64_t id = 0; id < spec.load_entries; ++id) {
    rum::Key key = KeyOf(id);
    entries.push_back({key, rum::ValueFor(key)});
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

StreamGenerator::StreamGenerator(const WorkloadSpec& spec, uint64_t seed,
                                 size_t client,
                                 const std::vector<rum::Entry>& loaded,
                                 std::function<bool(rum::Key)> owns)
    : spec_(spec),
      client_(client),
      owns_(std::move(owns)),
      rng_(Fold(seed, client + 1)),
      next_candidate_(spec.load_entries + client) {
  if (spec_.zipfian) {
    zipf_ = std::make_unique<rum::KeyGenerator>(
        rum::KeyDistribution::kZipfian, spec_.load_entries,
        Fold(seed, 0x21bf + client));
  }
  for (const rum::Entry& e : loaded) {
    if (owns_(e.key)) oracle_.emplace_hint(oracle_.end(), e.key, e.value);
  }
  for (size_t i = 0; i < spec_.warmup_inserts; ++i) {
    rum::Key key = KeyOf(NextNewId());
    rum::Value value = NextValue(key);
    oracle_[key] = value;
    warmup_.push_back({key, value});
  }
}

uint64_t StreamGenerator::DrawOwned(const std::function<uint64_t()>& draw) {
  while (true) {
    uint64_t id = draw();
    if (owns_(KeyOf(id))) return id;
  }
}

uint64_t StreamGenerator::DrawLoadedId() {
  if (zipf_ != nullptr) return DrawOwned([&] { return zipf_->Next(); });
  return DrawOwned([&] { return rng_.NextBelow(2 * spec_.load_entries); });
}

uint64_t StreamGenerator::NextNewId() {
  // Client c tries ids load + c, load + c + clients, ...: candidates of
  // different clients never collide, so an accepted id is new everywhere.
  while (true) {
    uint64_t id = next_candidate_;
    next_candidate_ += spec_.clients;
    if (owns_(KeyOf(id))) return id;
  }
}

rum::Value StreamGenerator::NextValue(rum::Key key) {
  return Fold(key, ++version_ * 0x100000001B3ULL + client_);
}

void StreamGenerator::AddGet(Op* op) {
  op->kind = OpKind::kGet;
  op->key = KeyOf(DrawLoadedId());
  auto it = oracle_.find(op->key);
  op->found = it != oracle_.end();
  op->value = op->found ? it->second : 0;
}

void StreamGenerator::Fill(Chunk* chunk) {
  chunk->ops.clear();
  chunk->multiget_keys.clear();
  const Mix& m = spec_.mix;
  for (size_t i = 0; i < spec_.chunk_ops; ++i) {
    Op op;
    unsigned r = static_cast<unsigned>(rng_.NextBelow(100));
    if (r < m.get) {
      AddGet(&op);
    } else if ((r -= m.get) < m.multiget) {
      op.kind = OpKind::kMultiGet;
      op.multiget_begin = static_cast<uint32_t>(chunk->multiget_keys.size());
      uint64_t h = 0;
      for (size_t k = 0; k < spec_.multiget_keys; ++k) {
        rum::Key key = KeyOf(DrawLoadedId());
        chunk->multiget_keys.push_back(key);
        auto it = oracle_.find(key);
        h = it == oracle_.end() ? Fold(h, kAbsent) : Fold(Fold(h, 1), it->second);
      }
      op.digest = h;
    } else if ((r -= m.multiget) < m.insert) {
      op.kind = OpKind::kInsert;
      op.key = KeyOf(NextNewId());
      op.value = NextValue(op.key);
      oracle_[op.key] = op.value;
    } else if ((r -= m.insert) < m.update + m.del) {
      // Updates and deletes target any id drawn so far (loaded keys under
      // Zipf on the skewed workload).
      bool is_update = r < m.update;
      uint64_t hi = next_candidate_;
      uint64_t id = zipf_ != nullptr
                        ? DrawLoadedId()
                        : DrawOwned([&] { return rng_.NextBelow(hi); });
      op.key = KeyOf(id);
      if (is_update) {
        op.kind = OpKind::kUpdate;
        op.value = NextValue(op.key);
        oracle_[op.key] = op.value;
      } else {
        op.kind = OpKind::kDelete;
        oracle_.erase(op.key);
      }
    } else {
      op.kind = OpKind::kScan;
      double span = static_cast<double>(kKeyMask) *
                    static_cast<double>(spec_.scan_keys) /
                    static_cast<double>(std::max<size_t>(1, oracle_.size()));
      op.key = rng_.NextBelow(kKeyMask + 1);
      op.hi = std::min<rum::Key>(kKeyMask, op.key + static_cast<rum::Key>(span));
      uint64_t h = 0;
      uint64_t n = 0;
      for (auto it = oracle_.lower_bound(op.key);
           it != oracle_.end() && it->first <= op.hi; ++it, ++n) {
        h = Fold(Fold(h, it->first), it->second);
      }
      op.digest = Fold(h, n);
    }
    chunk->ops.push_back(op);
  }
}

}  // namespace rumbench

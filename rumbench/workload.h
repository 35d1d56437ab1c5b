#ifndef RUMBENCH_WORKLOAD_H_
#define RUMBENCH_WORKLOAD_H_

// Workload definitions and the seeded operation-stream generator. The
// generator replays every operation on a std::map oracle as it draws it, so
// each read carries its expected result; all of this happens outside the
// timed window.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "workload/distribution.h"

namespace rumbench {

enum class OpKind : uint8_t { kGet, kMultiGet, kInsert, kUpdate, kDelete, kScan };

/// Percent of operations of each kind; sums to 100.
struct Mix {
  unsigned get = 0;
  unsigned multiget = 0;
  unsigned insert = 0;
  unsigned update = 0;
  unsigned del = 0;
  unsigned scan = 0;
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Method run under the shards (or alone when shards == 0).
  std::string method;
  /// 0: one method instance; otherwise a ShardedMethod of this many.
  size_t shards = 0;
  size_t clients = 1;
  size_t cache_pages = 0;
  bool arbiter = false;
  /// Entries bulk-loaded before timing starts.
  size_t load_entries = 0;
  /// New keys inserted during set-up after the bulk load.
  size_t warmup_inserts = 0;
  Mix mix;
  /// Get/MultiGet/Update targets follow Zipf(0.99) over loaded keys.
  bool zipfian = false;
  size_t multiget_keys = 32;
  /// Scans span about this many live keys.
  size_t scan_keys = 100;
  /// Operations per client per chunk: the unit of generation between timed
  /// stretches.
  size_t chunk_ops = 8192;
  /// Calls per second, all clients together, on the reference host. A run
  /// of --seconds does seconds * this many calls: fixed work, so every run
  /// of a seed walks the structure through the same states however fast
  /// it goes.
  size_t nominal_calls_per_s = 0;
};

/// All workloads, in display order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The key of record id `id`: a bijection on [0, 2^48) that scatters ids
/// uniformly over the key space.
rum::Key KeyOf(uint64_t id);

struct Op {
  OpKind kind = OpKind::kGet;
  /// Get: whether the key is live.
  bool found = false;
  /// MultiGet: offset of its keys in Chunk::multiget_keys.
  uint32_t multiget_begin = 0;
  /// Scan: lo. Otherwise the key.
  rum::Key key = 0;
  /// Scan: hi.
  rum::Key hi = 0;
  /// Writes: the value written. Get: the expected value.
  rum::Value value = 0;
  /// MultiGet / Scan: digest of the expected result.
  uint64_t digest = 0;
};

struct Chunk {
  std::vector<Op> ops;
  std::vector<rum::Key> multiget_keys;
};

/// Order-sensitive digest of a result sequence.
inline uint64_t Fold(uint64_t h, uint64_t x) {
  x += h + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Digest marker for a key a MultiGet found absent.
inline constexpr uint64_t kAbsent = 0xA85E47ULL;

/// Entries a workload bulk-loads, sorted by key.
std::vector<rum::Entry> LoadEntries(const WorkloadSpec& spec);

/// Draws one client's operation stream and replays it on that client's
/// oracle. `owns` tells whether a key belongs to this client (every key for
/// one client; partition-affine clients own disjoint key sets).
class StreamGenerator {
 public:
  /// `loaded` is LoadEntries(spec).
  StreamGenerator(const WorkloadSpec& spec, uint64_t seed, size_t client,
                  const std::vector<rum::Entry>& loaded,
                  std::function<bool(rum::Key)> owns);

  /// The warm-up inserts of this client, in call order.
  const std::vector<rum::Entry>& warmup() const { return warmup_; }

  /// Draws the next `spec.chunk_ops` operations into `chunk`.
  void Fill(Chunk* chunk);

 private:
  uint64_t DrawLoadedId();
  uint64_t DrawOwned(const std::function<uint64_t()>& draw);
  /// Next id never drawn before that this client owns.
  uint64_t NextNewId();
  rum::Value NextValue(rum::Key key);
  void AddGet(Op* op);

  const WorkloadSpec& spec_;
  size_t client_;
  std::function<bool(rum::Key)> owns_;
  rum::Rng rng_;
  std::unique_ptr<rum::KeyGenerator> zipf_;
  std::map<rum::Key, rum::Value> oracle_;
  std::vector<rum::Entry> warmup_;
  /// This client's next new-id candidate; every id it drew is below it.
  uint64_t next_candidate_;
  uint64_t version_ = 0;
};

}  // namespace rumbench

#endif  // RUMBENCH_WORKLOAD_H_

// The benchmark's workloads and the inputs generated for them. Every input
// (keys, the fixed operation lists of each phase, the insert order) is a
// pure function of (workload, --seed, --seconds, --scale), so the same
// arguments replay byte-identical work on every commit.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/ordered_index.h"
#include "workload/ycsb.h"

namespace perfbench {

using pieces::Key;
using pieces::Op;
using pieces::OpType;

// Record payload size for every workload. Smaller than the repo's
// 200-byte default so the 2M-key workload stays near 0.5 GB of simulated
// PMem (including its durable shadow image).
constexpr size_t kValueSize = 64;

struct WorkloadSpec {
  const char* name;
  const char* index;    // index/registry.h name
  const char* backend;  // "viper" | "disk"
  size_t keys;          // bulk-loaded keys at --scale 1
  size_t shards;
  int read_pct;
  int update_pct;
  int insert_pct;
  int scan_pct;
  bool zipfian;  // scrambled Zipfian (theta 0.99) vs uniform key picks
  uint32_t scan_len;
  bool replication;  // one shadow replica per shard, AckMode::kLocal
  // Offered load of the latency phase, pinned so every commit is measured
  // at the same rate.
  double paced_ops_per_s;
  // Sizes the unbounded phase's fixed op count: about the rate it ran at
  // when the benchmark was written, so it lasts about its share of
  // --seconds.
  double sized_ops_per_s;
  // Disk backend only: buffer-pool frames as a fraction of data pages,
  // and the error-bound readahead cap in pages.
  double pool_fraction;
  size_t readahead_pages;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies the key count (the self-test runs at --scale 0.02).
  double scale = 1.0;
  // Injected PMem read latency (ViperStore::Config::read_latency_ns): the
  // self-test's deliberate slowdown.
  uint64_t read_latency_ns = 0;
  // Traced run only: wrap each store in a payload-corrupting decorator
  // (the self-test's proof that the correctness gate bites).
  bool corrupt_payload = false;
  std::string data_dir;   // disk backend files
  std::string trace_out;  // span dump of the traced run ("" = none)
};

// Shares of --seconds given to each phase at the speed measured when the
// benchmark was written.
constexpr double kWarmupShare = 0.05;
constexpr double kUnboundedShare = 0.25;
constexpr double kPacedShare = 0.6;
// The traced run replays this leading share of --seconds of the paced op
// list (spans of a longer phase would not fit in memory at 1M ops/s).
constexpr double kTracedShare = 0.15;

struct Inputs {
  std::vector<Key> load;    // sorted, unique bulk-load keys
  std::vector<Key> sample;  // partition bootstrap sample
  std::vector<Op> warmup;   // read-only; fills caches before timing
  std::vector<Op> unbounded;
  std::vector<Op> paced;
  // Read-only check after crash recovery: sampled loaded keys (acked
  // inserts are added by the driver once it knows which were acked).
  std::vector<Op> recheck;
  // Records the store must hold at most: loaded keys plus every write.
  size_t max_records = 0;
  // Non-empty when the inputs could not be built as specified.
  std::string error;
};

Inputs MakeInputs(const WorkloadSpec& spec, const Options& options);

// Byte-for-byte check of a read payload against the synthetic value every
// workload writes (ViperStore::FillSyntheticValue).
bool PayloadOk(Key key, const uint8_t* value);

// Exact check of a scan result against the loaded key set: the keys must
// be the `scan_len` (or fewer, at the end) successors of `from`, in order.
// Valid because no scanning workload writes.
bool ScanOk(const std::vector<Key>& load, Key from, uint32_t scan_len,
            const std::vector<Key>& got);

bool IsRead(OpType type);
bool IsWrite(OpType type);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

#include "workload.h"

#include <algorithm>
#include <cstring>

#include "common/random.h"
#include "store/record_format.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

// Rates were measured when the benchmark was written (4-vCPU KVM guest,
// GCC 12 Release build): sized_ops_per_s is about the unbounded phase's
// rate, and paced_ops_per_s sits well below the rate at which requests
// served one at a time saturate (see README.md). They are constants on
// purpose: a later, faster build is offered exactly the same load.
const WorkloadSpec kWorkloads[] = {
    // The paper's "index dominates" case: YCSB-B over DRAM-resident
    // records, where the store is a 64-byte copy.
    {"read_mem", "ALEX", "viper", 2'000'000, 2, 95, 5, 0, 0, true, 0, false,
     /*paced=*/300'000, /*sized=*/3'000'000, 0, 0},
    // Larger than the program's cache: the buffer pool holds 10% of the
    // data pages, so pool misses, page fetches and readahead dominate.
    {"scan_disk", "PGM", "disk", 1'000'000, 1, 90, 0, 0, 10, false, 50,
     false, /*paced=*/60'000, /*sized=*/400'000, 0.10, 8},
    // Writes beside reads with replication on: index inserts, two
    // barriers per put, the commit tap and the shipper thread.
    {"write_repl", "ALEX", "viper", 1'000'000, 1, 50, 25, 25, 0, true, 0,
     true, /*paced=*/70'000, /*sized=*/430'000, 0, 0},
};

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(1000, static_cast<size_t>(n * scale));
}

size_t OpsFor(double ops_per_s, double seconds, double share) {
  return std::max<size_t>(100,
                          static_cast<size_t>(ops_per_s * seconds * share));
}

// Picks keys of the loaded set: scrambled Zipfian or uniform.
class KeyPicker {
 public:
  KeyPicker(const std::vector<Key>& load, bool zipfian, uint64_t seed)
      : load_(load), zipfian_(zipfian), rng_(seed), zipf_(load.size(),
                                                           0.99, seed) {}

  Key Next() {
    return load_[zipfian_ ? zipf_.NextScrambled()
                          : rng_.NextUnder(load_.size())];
  }

 private:
  const std::vector<Key>& load_;
  bool zipfian_;
  pieces::Rng rng_;
  pieces::ZipfGenerator zipf_;
};

// `count` ops of the workload's mix. Inserts consume `pool` in order from
// *next_insert and never wrap, so every insert is a fresh key; an empty
// result means the pool ran dry.
std::vector<Op> MakeOps(const WorkloadSpec& spec, size_t count,
                        KeyPicker& picker, pieces::Rng& rng,
                        const std::vector<Key>& pool, size_t* next_insert,
                        bool read_only) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Op op{OpType::kRead, 0, 0};
    const int r = read_only ? 0 : static_cast<int>(rng.NextUnder(100));
    if (r < spec.read_pct) {
      op.type = OpType::kRead;
    } else if (r < spec.read_pct + spec.update_pct) {
      op.type = OpType::kUpdate;
    } else if (r < spec.read_pct + spec.update_pct + spec.insert_pct) {
      op.type = OpType::kInsert;
    } else {
      op.type = OpType::kScan;
      op.scan_len = spec.scan_len;
    }
    if (op.type == OpType::kInsert) {
      if (*next_insert == pool.size()) return {};
      op.key = pool[(*next_insert)++];
    } else {
      op.key = picker.Next();
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Options& options) {
  Inputs in;
  const size_t n_warm =
      OpsFor(spec.sized_ops_per_s, options.seconds, kWarmupShare);
  const size_t n_unbounded =
      OpsFor(spec.sized_ops_per_s, options.seconds, kUnboundedShare);
  const size_t n_paced =
      OpsFor(spec.paced_ops_per_s, options.seconds, kPacedShare);
  // Enough fresh keys for any draw of the mix (the share is drawn per op;
  // 10% plus 1000 is far beyond its binomial spread). MakeOps still
  // refuses to run past the pool, so inserts can never wrap into updates.
  const size_t max_inserts =
      spec.insert_pct == 0
          ? 0
          : (n_unbounded + n_paced) * spec.insert_pct / 100 * 11 / 10 + 1000;

  const size_t n_load = Scaled(spec.keys, options.scale);
  std::vector<Key> all =
      pieces::MakeOsmLikeKeys(n_load + max_inserts, options.seed);
  std::vector<Key> pool;
  if (max_inserts == 0) {
    in.load = std::move(all);
  } else {
    // Evenly spaced keys become insert keys, so inserts land all over the
    // loaded key space (inside its dense clusters); the insert order is
    // then shuffled.
    const double stride = static_cast<double>(all.size()) / max_inserts;
    size_t next_pick = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      const size_t pick = static_cast<size_t>((next_pick + 0.5) * stride);
      if (next_pick < max_inserts && i == pick) {
        pool.push_back(all[i]);
        ++next_pick;
      } else {
        in.load.push_back(all[i]);
      }
    }
    pieces::Rng shuffle(options.seed ^ 0x5eedf00dULL);
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[shuffle.NextUnder(i)]);
    }
  }

  for (size_t i = 0; i < in.load.size(); i += 64) {
    in.sample.push_back(in.load[i]);
  }

  // Independent streams per phase, all derived from the seed.
  size_t next_insert = 0;
  {
    KeyPicker picker(in.load, spec.zipfian, options.seed * 4 + 1);
    pieces::Rng rng(options.seed * 4 + 1);
    in.warmup = MakeOps(spec, n_warm, picker, rng, pool, &next_insert,
                        /*read_only=*/true);
  }
  {
    KeyPicker picker(in.load, spec.zipfian, options.seed * 4 + 2);
    pieces::Rng rng(options.seed * 4 + 2);
    in.unbounded = MakeOps(spec, n_unbounded, picker, rng, pool,
                           &next_insert, false);
  }
  {
    KeyPicker picker(in.load, spec.zipfian, options.seed * 4 + 3);
    pieces::Rng rng(options.seed * 4 + 3);
    in.paced =
        MakeOps(spec, n_paced, picker, rng, pool, &next_insert, false);
  }
  if (in.unbounded.size() != n_unbounded || in.paced.size() != n_paced) {
    in.error = "insert pool ran dry";
    return in;
  }
  {
    // Uniform sample of the loaded keys, checked after crash recovery.
    pieces::Rng rng(options.seed * 4 + 4);
    const size_t n = std::min<size_t>(in.load.size(), 50'000);
    for (size_t i = 0; i < n; ++i) {
      in.recheck.push_back(
          Op{OpType::kRead, in.load[rng.NextUnder(in.load.size())], 0});
    }
  }
  size_t writes = 0;
  for (const auto* ops : {&in.unbounded, &in.paced}) {
    for (const Op& op : *ops) writes += IsWrite(op.type) ? 1 : 0;
  }
  in.max_records = in.load.size() + writes;
  return in;
}

bool PayloadOk(Key key, const uint8_t* value) {
  uint8_t expected[kValueSize];
  pieces::FillSyntheticRecordValue(key, expected, kValueSize);
  return std::memcmp(expected, value, kValueSize) == 0;
}

bool ScanOk(const std::vector<Key>& load, Key from, uint32_t scan_len,
            const std::vector<Key>& got) {
  auto it = std::lower_bound(load.begin(), load.end(), from);
  const size_t want = std::min<size_t>(scan_len, load.end() - it);
  return got.size() == want && std::equal(got.begin(), got.end(), it);
}

bool IsRead(OpType type) { return type == OpType::kRead; }

bool IsWrite(OpType type) {
  return type == OpType::kInsert || type == OpType::kUpdate ||
         type == OpType::kReadModifyWrite;
}

}  // namespace perfbench

// Sharded KV service (src/service/): CDF-balanced range partitioning,
// request routing, cross-shard scans, admission control, graceful
// shutdown, the spin-then-park worker hand-off and caller-run lanes. The Service* suite
// names are part of the ASan and TSan CI filters — several tests here
// exercise the worker threads concurrently.
#include "service/router.h"

#include <gtest/gtest.h>

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "index/registry.h"
#include "workload/datasets.h"

namespace pieces::service {
namespace {

ServiceConfig SmallConfig(size_t shards,
                          size_t queue_capacity = 1024,
                          AdmissionPolicy policy = AdmissionPolicy::kBlock) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = queue_capacity;
  cfg.admission = policy;
  cfg.store.value_size = 64;
  cfg.store.pmem_capacity = size_t{64} << 20;
  return cfg;
}

// Submits `req` and blocks until its completion fires (the sync API only
// covers Get/Put/Scan; this covers arbitrary request types).
RequestStatus DoSync(KvService* svc, Request req) {
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  RequestStatus out = RequestStatus::kOk;
  req.done = [&](RequestStatus st) {
    // Notify under the lock: the waiter owns the stack state and may
    // destroy it as soon as it can reacquire the mutex.
    std::lock_guard<std::mutex> lock(m);
    out = st;
    fired = true;
    cv.notify_one();
  };
  svc->Submit(std::move(req));
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return fired; });
  return out;
}

TEST(RangePartitionTest, CdfBalancedOnSkewedSample) {
  // 90% of the mass in a dense cluster near 0, 10% spread across a huge
  // sparse tail: equal-width would dump ~90% of keys on shard 0; the
  // equal-mass quantile split balances them.
  std::vector<Key> sample;
  for (Key i = 0; i < 900; ++i) sample.push_back(i);
  for (Key i = 0; i < 100; ++i) {
    sample.push_back(Key{1} << 40 | (i << 20));
  }
  RangePartition part(4, sample);
  std::vector<size_t> per_shard(4, 0);
  for (Key k : sample) ++per_shard[part.ShardOf(k)];
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GE(per_shard[s], 240u) << "shard " << s;
    EXPECT_LE(per_shard[s], 260u) << "shard " << s;
  }
  // Boundaries are strictly increasing.
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
}

TEST(RangePartitionTest, BoundaryKeyBelongsToRightShard) {
  std::vector<Key> sample;
  for (Key i = 0; i < 100; ++i) sample.push_back(i);
  RangePartition part(4, sample);
  ASSERT_EQ(part.boundaries().size(), 3u);
  EXPECT_EQ(part.boundaries(), (std::vector<Key>{25, 50, 75}));
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(24), 0u);
  EXPECT_EQ(part.ShardOf(25), 1u);  // Boundary key → shard on its right.
  EXPECT_EQ(part.ShardOf(49), 1u);
  EXPECT_EQ(part.ShardOf(50), 2u);
  EXPECT_EQ(part.ShardOf(75), 3u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()), 3u);
  EXPECT_EQ(part.LowerBound(0), 0u);
  EXPECT_EQ(part.LowerBound(1), 25u);
  EXPECT_EQ(part.LowerBound(4), std::numeric_limits<Key>::max());
}

TEST(RangePartitionTest, EqualWidthFallbackOnTinySample) {
  RangePartition part(8, {1, 2, 3});
  ASSERT_EQ(part.boundaries().size(), 7u);
  const Key step = std::numeric_limits<Key>::max() / 8;
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(part.boundaries()[i], step * (i + 1));
  }
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()), 7u);
}

TEST(RangePartitionTest, DuplicateHeavySampleStaysStrictlyIncreasing) {
  // A sample dominated by one key cannot be split by mass; boundaries
  // must still come out strictly increasing (nudged past the duplicate).
  std::vector<Key> sample(1000, 42);
  sample.push_back(7);
  sample.push_back(1'000'000);
  RangePartition part(4, sample);
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
  // Every key still maps to a valid shard.
  for (Key k : {Key{0}, Key{7}, Key{42}, Key{1'000'000}}) {
    EXPECT_LT(part.ShardOf(k), 4u);
  }
}

TEST(RangePartitionTest, AllDuplicateSampleShrinksEffectiveShardCount) {
  // Every sampled key identical and equal to Key max: the nudge runs out
  // of domain immediately, so only one boundary survives. The effective
  // shard count must follow the boundary list — the old code kept
  // num_shards at 4, leaving two trailing shards owning empty ranges
  // while the service still spawned workers and fanned scans out to them.
  std::vector<Key> sample(1000, std::numeric_limits<Key>::max());
  RangePartition part(4, sample);
  EXPECT_EQ(part.num_shards(), part.boundaries().size() + 1);
  EXPECT_EQ(part.num_shards(), 2u);
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()),
            part.num_shards() - 1);

  // All-duplicates in the middle of the domain: nudging disambiguates
  // every boundary, so the full shard count survives.
  std::vector<Key> mid(1000, 42);
  RangePartition part_mid(4, mid);
  EXPECT_EQ(part_mid.num_shards(), 4u);
  ASSERT_EQ(part_mid.boundaries().size(), 3u);
  for (size_t i = 1; i < part_mid.boundaries().size(); ++i) {
    EXPECT_LT(part_mid.boundaries()[i - 1], part_mid.boundaries()[i]);
  }

  // The service must agree with the partition, not the requested count:
  // no dead shards, and requests route within [0, num_shards).
  KvService svc("BTree", SmallConfig(4), sample);
  EXPECT_EQ(svc.num_shards(), 2u);
  std::vector<Key> load = {1, 2, 3, std::numeric_limits<Key>::max() - 1};
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  std::vector<uint8_t> buf(svc.value_size());
  for (Key k : load) {
    EXPECT_EQ(svc.Get(k, buf.data()), RequestStatus::kOk) << k;
  }
  std::vector<Key> got;
  EXPECT_EQ(svc.Scan(0, load.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got, load);
}

TEST(RangePartitionTest, FirstBoundaryZeroIsNudged) {
  // A sample whose first quantile is 0 used to produce boundaries
  // starting at 0 (the first boundary skipped the nudge), making shard 0
  // own the empty range [0, 0). Key 0 must stay in shard 0 and the
  // boundary must move to 1.
  std::vector<Key> sample(500, 0);
  for (Key i = 0; i < 500; ++i) sample.push_back(1000 + i);
  RangePartition part(4, sample);
  ASSERT_FALSE(part.boundaries().empty());
  EXPECT_GE(part.boundaries()[0], 1u);
  EXPECT_EQ(part.ShardOf(0), 0u);
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
  EXPECT_EQ(part.num_shards(), part.boundaries().size() + 1);
}

TEST(ServiceTest, OversizedScanCountReturnsInvalid) {
  // Request carries scan_len as uint32_t. A count above that used to be
  // silently clamped, returning fewer keys than asked with status kOk.
  std::vector<Key> keys = MakeUniformKeys(512, 21);
  KvService svc("BTree", SmallConfig(2), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  std::vector<Key> got;
  const size_t oversized =
      static_cast<size_t>(std::numeric_limits<uint32_t>::max()) + 1;
  EXPECT_EQ(svc.Scan(0, oversized, &got), RequestStatus::kInvalid);
  EXPECT_TRUE(got.empty());
  // The max representable count is still served.
  EXPECT_EQ(svc.Scan(0, keys.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got.size(), keys.size());
}

TEST(ServiceTest, ScanSpanningThreeShardsReturnsExactCount) {
  std::vector<Key> keys = MakeUniformKeys(8192, 23);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  // Start just inside shard 0 and ask for enough keys to cross at least
  // two boundaries (CDF-balanced partition: each shard holds ~1/4).
  const Key from = keys[100];
  const size_t count = keys.size() / 2 + keys.size() / 8;  // ~2.5 shards
  std::vector<Key> got;
  ASSERT_EQ(svc.Scan(from, count, &got), RequestStatus::kOk);
  EXPECT_EQ(got.size(), count);  // exactly `count`, not a clamp artifact
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GE(svc.ShardOf(got.back()) - svc.ShardOf(got.front()), 2u)
      << "scan did not span >= 3 shards";
  // Against the oracle: the `count` smallest loaded keys >= from.
  auto begin = std::lower_bound(keys.begin(), keys.end(), from);
  std::vector<Key> oracle(begin, begin + static_cast<ptrdiff_t>(count));
  EXPECT_EQ(got, oracle);
}

TEST(ServiceMaintenanceTest, BackgroundRetrainingKeepsServiceCorrect) {
  // End-to-end wiring: maintenance enabled through ServiceConfig, an
  // index that implements MaintenanceHook (XIndex), sustained inserts
  // driving drift, and the maintainer publishing retrains while the shard
  // workers serve — ShardStats must surface the background counters.
  std::vector<Key> keys = MakeUniformKeys(16384, 29);
  ServiceConfig cfg = SmallConfig(2);
  cfg.store.pmem_capacity = size_t{256} << 20;
  cfg.maintenance.enabled = true;
  cfg.maintenance.drift_threshold = 0.25;
  cfg.maintenance.poll_interval_us = 200;
  KvService svc("XIndex", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::vector<Request> batch;
  for (Key i = 0; i < 20000; ++i) {
    Request req;
    req.type = OpType::kInsert;
    req.key = keys[i % keys.size()] + 1 + i;
    batch.push_back(std::move(req));
    if (batch.size() == 256) {
      svc.SubmitBatch(std::move(batch));
      batch.clear();
    }
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();

  // Reads stay correct with retrains in flight.
  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> expected(svc.value_size());
  for (size_t i = 0; i < keys.size(); i += 511) {
    ASSERT_EQ(svc.Get(keys[i], got.data()), RequestStatus::kOk) << keys[i];
    ViperStore::FillSyntheticValue(keys[i], expected.data(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);
  }
  ServiceStats stats = svc.Stats();
  uint64_t scans = 0, published = 0;
  for (const ShardStats& s : stats.shards) {
    scans += s.bg_scans;
    published += s.bg_published;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(published, 0u);
  svc.Shutdown();

  // Maintenance requested on an index with no hook: stats stay zero and
  // the service works normally (the flag is simply ignored).
  ServiceConfig btree_cfg = SmallConfig(1);
  btree_cfg.maintenance.enabled = true;
  KvService plain("BTree", btree_cfg, keys);
  ASSERT_TRUE(plain.BulkLoad(keys));
  plain.Start();
  EXPECT_EQ(plain.Get(keys[0], got.data()), RequestStatus::kOk);
  EXPECT_EQ(plain.Stats().shards[0].bg_scans, 0u);
}

TEST(ServiceTest, SyncGetPutScanRoundTrip) {
  std::vector<Key> keys = MakeUniformKeys(2048, 11);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> expected(svc.value_size());
  ViperStore::FillSyntheticValue(keys[100], expected.data(), expected.size());
  EXPECT_EQ(svc.Get(keys[100], got.data()), RequestStatus::kOk);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);

  // A key outside the loaded set.
  Key absent = keys.back() + 12345;
  EXPECT_EQ(svc.Get(absent, got.data()), RequestStatus::kNotFound);
  EXPECT_EQ(svc.Put(absent), RequestStatus::kOk);
  ViperStore::FillSyntheticValue(absent, expected.data(), expected.size());
  EXPECT_EQ(svc.Get(absent, got.data()), RequestStatus::kOk);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);

  // RMW on a present key succeeds, on an absent key reports kNotFound.
  Request rmw;
  rmw.type = OpType::kReadModifyWrite;
  rmw.key = keys[5];
  EXPECT_EQ(DoSync(&svc, std::move(rmw)), RequestStatus::kOk);
  Request rmw_absent;
  rmw_absent.type = OpType::kReadModifyWrite;
  rmw_absent.key = absent + 999;
  EXPECT_EQ(DoSync(&svc, std::move(rmw_absent)), RequestStatus::kNotFound);
}

TEST(ServiceTest, BulkLoadSplitsAcrossAllShards) {
  std::vector<Key> keys = MakeUniformKeys(4096, 5);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  EXPECT_EQ(svc.TotalKeys(), keys.size());
  // The partition was bootstrapped from these very keys, so every shard
  // owns roughly an equal share of them.
  ServiceStats stats = svc.Stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  for (const ShardStats& s : stats.shards) {
    EXPECT_GE(s.keys, keys.size() / 8);
    EXPECT_LE(s.keys, keys.size() / 2);
  }
}

TEST(ServiceTest, CrossShardScanMergesInKeyOrder) {
  std::vector<Key> keys = MakeUniformKeys(4096, 7);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  // Start in shard 0 and span the whole key space: the fan-out touches
  // every shard and the merged result must match a single sorted oracle.
  const size_t want = 3000;  // > one shard's share, so the scan crosses.
  Key from = keys[10];
  std::vector<Key> got;
  EXPECT_EQ(svc.Scan(from, want, &got), RequestStatus::kOk);

  auto begin = std::lower_bound(keys.begin(), keys.end(), from);
  std::vector<Key> oracle(
      begin, begin + std::min<size_t>(want, keys.end() - begin));
  EXPECT_EQ(got, oracle);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(ServiceTest, AdmissionRejectIsDeterministicAndCounted) {
  // Queue capacity 8, no worker running: the 9th request must be
  // rejected inline — deterministically, since nothing drains the queue.
  std::vector<Key> keys = MakeUniformKeys(512, 3);
  KvService svc("BTree", SmallConfig(1, 8, AdmissionPolicy::kReject), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));

  std::atomic<int> completed{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.type = OpType::kRead;
    req.key = keys[static_cast<size_t>(i)];
    req.done = [&](RequestStatus st) {
      completed.fetch_add(1);
      if (st == RequestStatus::kOk) ok.fetch_add(1);
    };
    svc.Submit(std::move(req));
  }
  EXPECT_EQ(completed.load(), 0);  // Queued, not yet executed.

  LatencyRecorder reject_latency;
  RequestStatus rejected_status = RequestStatus::kOk;
  Request extra;
  extra.type = OpType::kRead;
  extra.key = keys[9];
  extra.start_nanos = NowNanos();
  extra.latency = &reject_latency;
  extra.done = [&](RequestStatus st) { rejected_status = st; };
  svc.Submit(std::move(extra));
  EXPECT_EQ(rejected_status, RequestStatus::kRejected);
  // Rejected requests never record latency.
  EXPECT_EQ(reject_latency.Count(), 0u);
  EXPECT_EQ(svc.Stats().total_rejected(), 1u);

  // Once the worker runs, every accepted request completes.
  svc.Start();
  svc.Drain();
  EXPECT_EQ(completed.load(), 8);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(svc.Stats().total_ops(), 8u);
}

TEST(ServiceTest, BlockingAdmissionCompletesEverything) {
  // Tiny queues under kBlock: producers stall instead of dropping, so
  // all 600 requests complete despite capacity 4.
  std::vector<Key> keys = MakeUniformKeys(2048, 13);
  KvService svc("BTree", SmallConfig(2, 4, AdmissionPolicy::kBlock), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::atomic<int> completed{0};
  std::vector<Request> batch;
  for (int i = 0; i < 600; ++i) {
    Request req;
    req.type = i % 2 == 0 ? OpType::kRead : OpType::kUpdate;
    req.key = keys[static_cast<size_t>(i) % keys.size()];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      completed.fetch_add(1);
    };
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();
  EXPECT_EQ(completed.load(), 600);
  EXPECT_EQ(svc.Stats().total_rejected(), 0u);
}

TEST(ServiceTest, ShutdownDrainsAcceptedThenRefusesNewWork) {
  std::vector<Key> keys = MakeUniformKeys(1024, 17);
  KvService svc("BTree", SmallConfig(2, 1024), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));

  // Queue work before any worker exists; graceful shutdown must still
  // execute all of it (accepted requests always complete).
  std::atomic<int> completed{0};
  std::vector<Request> batch;
  for (int i = 0; i < 100; ++i) {
    Request req;
    req.type = OpType::kRead;
    req.key = keys[static_cast<size_t>(i)];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      completed.fetch_add(1);
    };
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Start();
  svc.Shutdown();
  EXPECT_EQ(completed.load(), 100);

  // Post-shutdown submissions complete inline with kShutdown; Shutdown
  // is idempotent.
  std::vector<uint8_t> buf(svc.value_size());
  EXPECT_EQ(svc.Get(keys[0], buf.data()), RequestStatus::kShutdown);
  EXPECT_EQ(svc.Put(keys[0]), RequestStatus::kShutdown);
  svc.Shutdown();
}

TEST(ServiceTest, StoreFullSurfacesPerRequest) {
  // A store with almost no PMem headroom: bulk load fits, but the
  // out-of-place Puts soon exhaust capacity and must report kStoreFull
  // rather than dying or lying.
  std::vector<Key> keys = MakeUniformKeys(256, 19);
  ServiceConfig cfg = SmallConfig(1);
  cfg.store.pmem_capacity = keys.size() * (sizeof(Key) + 64) + 4096;
  KvService svc("BTree", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  RequestStatus last = RequestStatus::kOk;
  for (int i = 0; i < 1000 && last == RequestStatus::kOk; ++i) {
    last = svc.Put(keys.back() + 1 + static_cast<Key>(i));
  }
  EXPECT_EQ(last, RequestStatus::kStoreFull);
}

// CPUs this process may run on (its affinity mask).
size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

// Shards (or lanes) that still leave the process fewer workers than
// usable CPUs, so the hand-off tests exercise the spin where the machine
// allows it: between 1 and `most`.
size_t SpinningWorkers(size_t most) {
  return std::clamp<size_t>(UsableCpus() - 1, 1, most);
}

// CPU time consumed by every thread of this process so far.
uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

TEST(ServiceHandoff, IdleWorkersPark) {
  // An idle worker spins for at most Shard::kSpinWindowNs, then parks on
  // its condvar. After a burst and a pause well past the window, the
  // whole process must stay under 5% of one core; an unbounded spin
  // burns a full core per spinner.
  std::vector<Key> keys = MakeUniformKeys(4096, 31);
  KvService svc("BTree", SmallConfig(SpinningWorkers(4)), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  std::vector<Request> batch;
  for (size_t i = 0; i < 4000; ++i) {
    Request req;
    req.type = i % 4 == 0 ? OpType::kUpdate : OpType::kRead;
    req.key = keys[(i * 7) % keys.size()];
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t cpu_before = ProcessCpuNanos();
  const uint64_t wall_before = NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t cpu_used = ProcessCpuNanos() - cpu_before;
  const uint64_t wall = NowNanos() - wall_before;
  EXPECT_LE(cpu_used, wall / 20)
      << "idle process used " << cpu_used << " ns CPU in " << wall
      << " ns: a worker is still spinning";
  EXPECT_EQ(svc.Stats().total_ops(), 4000u);
}

// Four producers, each owning a disjoint slice of `keys` plus fresh keys
// of its own, submit reads, updates and inserts in groups of one to three
// with pauses drawn from {0, 10, 60, 200} us. A lone request mostly runs
// on its producer (idle lane); a group always goes through a worker's
// queue, and the short pauses land inside the worker's spin window while
// the long ones outlast it, so lanes cross spin -> park and caller ->
// worker thousands of times. Every completion must fire exactly once with kOk,
// every read must return the producer's ordered-map oracle value (per-key
// FIFO makes that value exact), and Drain() must return.
void RunSpinParkProducers(KvService* svc, const std::vector<Key>& keys) {
  constexpr size_t kProducers = 4;
  constexpr size_t kOpsPerProducer = 1500;
  constexpr uint64_t kPausesUs[] = {0, 10, 60, 200};
  const size_t vsize = svc->value_size();
  struct Op {
    bool is_read = false;
    std::vector<uint8_t> value;     // write payload
    std::vector<uint8_t> out;       // read destination
    std::vector<uint8_t> expected;  // oracle value for a read
    std::atomic<int> fired{0};
    std::atomic<RequestStatus> status{RequestStatus::kOk};
  };
  std::vector<std::vector<std::unique_ptr<Op>>> ops(kProducers);
  // A lost wake-up strands a request in a lane nobody watches: producers
  // then block on a full queue or Drain() never returns. The watchdog
  // turns that hang into a prompt, named failure.
  std::atomic<bool> drained{false};
  std::thread watchdog([&drained] {
    const uint64_t deadline = NowNanos() + 60'000'000'000ULL;
    while (!drained.load()) {
      if (NowNanos() > deadline) {
        std::fprintf(stderr, "lost wake-up: producers or Drain() stuck\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(4000 + p);
      std::map<Key, std::vector<uint8_t>> oracle;
      std::vector<Key> owned;
      for (size_t j = p; j < keys.size(); j += kProducers) {
        owned.push_back(keys[j]);
      }
      size_t next_fresh = 0;  // index into owned; keys[j] + 1 is fresh
      std::vector<Key> inserted;
      std::vector<Request> group;
      size_t group_size = 1 + rng.NextUnder(3);
      for (size_t i = 0; i < kOpsPerProducer; ++i) {
        auto op = std::make_unique<Op>();
        Request req;
        const uint64_t dice = rng.NextUnder(10);
        Key key = owned[rng.NextUnder(owned.size())];
        if (dice < 3 && next_fresh < owned.size()) {
          key = owned[next_fresh++] + 1;
          if (std::binary_search(keys.begin(), keys.end(), key)) continue;
          req.type = OpType::kInsert;
          inserted.push_back(key);
        } else if (dice < 6) {
          req.type = OpType::kUpdate;
        } else {
          req.type = OpType::kRead;
          if (dice == 9 && !inserted.empty()) {
            key = inserted[rng.NextUnder(inserted.size())];
          }
        }
        req.key = key;
        if (req.type == OpType::kRead) {
          op->is_read = true;
          auto it = oracle.find(key);
          if (it == oracle.end()) {
            op->expected.resize(vsize);
            ViperStore::FillSyntheticValue(key, op->expected.data(), vsize);
          } else {
            op->expected = it->second;
          }
          op->out.assign(vsize, 0);
          req.out = op->out.data();
        } else {
          op->value.assign(vsize, 0);
          const uint64_t tag = (uint64_t{p} << 32) | i;
          std::memcpy(op->value.data(), &tag, sizeof(tag));
          std::memcpy(op->value.data() + sizeof(tag), &key, sizeof(key));
          oracle[key] = op->value;
          req.value = op->value.data();
        }
        Op* raw = op.get();
        req.done = [raw](RequestStatus st) {
          raw->status.store(st);
          raw->fired.fetch_add(1);
        };
        ops[p].push_back(std::move(op));
        group.push_back(std::move(req));
        if (group.size() < group_size) continue;
        svc->SubmitBatch(std::move(group));
        group.clear();
        group_size = 1 + rng.NextUnder(3);

        const uint64_t pause_us = kPausesUs[rng.NextUnder(4)];
        if (pause_us >= 50) {
          std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
        } else {
          // Sleeping would overshoot into the park regime: busy-wait.
          const uint64_t until = NowNanos() + pause_us * 1000;
          while (NowNanos() < until) {
          }
        }
      }
      if (!group.empty()) svc->SubmitBatch(std::move(group));
    });
  }
  for (std::thread& t : producers) t.join();
  svc->Drain();
  drained.store(true);
  watchdog.join();

  size_t reads = 0;
  for (size_t p = 0; p < kProducers; ++p) {
    for (const auto& op : ops[p]) {
      ASSERT_EQ(op->fired.load(), 1);
      ASSERT_EQ(op->status.load(), RequestStatus::kOk);
      if (!op->is_read) continue;
      ++reads;
      ASSERT_EQ(op->out, op->expected);
    }
  }
  EXPECT_GT(reads, kProducers * kOpsPerProducer / 4);
}

TEST(ServiceHandoff, NoLostWakeupAcrossSpinAndPark) {
  // Both services stay under one worker per usable CPU, so their idle
  // workers spin (on a machine with more than one CPU).
  std::vector<Key> keys = MakeUniformKeys(8192, 33);
  {
    // Single-lane shards.
    KvService svc("BTree", SmallConfig(SpinningWorkers(3)), keys);
    ASSERT_TRUE(svc.BulkLoad(keys));
    svc.Start();
    RunSpinParkProducers(&svc, keys);
  }
  ServiceConfig cfg = SmallConfig(1);
  cfg.writers_per_shard = std::max<size_t>(2, SpinningWorkers(4));
  KvService svc("ALEX", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  ASSERT_EQ(svc.Stats().shards[0].writers, cfg.writers_per_shard);
  svc.Start();
  RunSpinParkProducers(&svc, keys);
}

TEST(ServiceHandoff, OversubscribedWorkersParkAtOnce) {
  // A spinner is useful only while its producer runs on another CPU, so
  // once the process has a started worker per usable CPU every worker
  // parks at once, and spinning resumes when workers are joined. One
  // ALEX shard with a writer lane per CPU reaches the limit with a single
  // store however many CPUs the machine has.
  const size_t cpus = UsableCpus();
  std::vector<Key> keys = MakeUniformKeys(4096, 37);
  auto config = [](size_t workers) {
    ServiceConfig cfg = SmallConfig(1);
    cfg.writers_per_shard = workers;
    return cfg;
  };
  EXPECT_TRUE(Shard::SpinsWhenIdle());  // no workers yet
  {
    KvService svc("ALEX", config(cpus), keys);
    ASSERT_TRUE(svc.BulkLoad(keys));
    EXPECT_TRUE(Shard::SpinsWhenIdle());  // built, not started
    svc.Start();
    EXPECT_FALSE(Shard::SpinsWhenIdle());
    // The parked workers still serve every request (a batch, so none
    // runs on this thread).
    std::atomic<size_t> completed{0};
    std::vector<Request> batch;
    for (size_t i = 0; i < 200; ++i) {
      Request req;
      req.type = OpType::kRead;
      req.key = keys[(i * 13) % keys.size()];
      req.done = [&completed](RequestStatus st) {
        EXPECT_EQ(st, RequestStatus::kOk);
        completed.fetch_add(1);
      };
      batch.push_back(std::move(req));
    }
    svc.SubmitBatch(std::move(batch));
    svc.Drain();
    EXPECT_EQ(completed.load(), 200u);
    // Crash recovery joins and restarts the same workers.
    svc.CrashAndRecover();
    EXPECT_FALSE(Shard::SpinsWhenIdle());
  }
  EXPECT_TRUE(Shard::SpinsWhenIdle());  // all joined
  if (cpus > 1) {
    KvService svc("ALEX", config(cpus - 1), keys);
    ASSERT_TRUE(svc.BulkLoad(keys));
    svc.Start();
    EXPECT_TRUE(Shard::SpinsWhenIdle());
  }
}

// ---- Caller-run lanes -------------------------------------------------

TEST(ServiceCallerRuns, SingleRequestOnIdleLaneRunsOnSubmitter) {
  std::vector<Key> keys = MakeUniformKeys(1024, 41);
  KvService svc("BTree", SmallConfig(1), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  const std::thread::id self = std::this_thread::get_id();

  // Before Start nothing runs on the caller: the request waits for the
  // worker, so admission stays deterministic to test.
  std::atomic<bool> early_fired{false};
  std::thread::id early_thread;
  Request early;
  early.key = keys[0];
  early.done = [&](RequestStatus st) {
    EXPECT_EQ(st, RequestStatus::kOk);
    early_thread = std::this_thread::get_id();
    early_fired.store(true);
  };
  svc.Submit(std::move(early));
  EXPECT_FALSE(early_fired.load());
  svc.Start();
  svc.Drain();
  ASSERT_TRUE(early_fired.load());
  EXPECT_NE(early_thread, self);

  // Started and idle: a single read or write completes inside Submit, on
  // this thread.
  for (size_t i = 0; i < 16; ++i) {
    bool fired = false;
    std::thread::id ran;
    Request req;
    req.type = i % 2 == 0 ? OpType::kRead : OpType::kUpdate;
    req.key = keys[i];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      ran = std::this_thread::get_id();
      fired = true;
    };
    svc.Submit(std::move(req));
    ASSERT_TRUE(fired) << "request " << i << " did not run inside Submit";
    EXPECT_EQ(ran, self);
  }

  // A 64-request batch queues for the worker even though its lane is
  // idle: batches amortize the hand-off.
  std::mutex m;
  std::set<std::thread::id> threads;
  std::atomic<size_t> completed{0};
  std::vector<Request> batch;
  for (size_t i = 0; i < 64; ++i) {
    Request req;
    req.key = keys[i * 3];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      std::lock_guard<std::mutex> lock(m);
      threads.insert(std::this_thread::get_id());
      completed.fetch_add(1);
    };
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();
  EXPECT_EQ(completed.load(), 64u);
  EXPECT_EQ(threads.count(self), 0u);
  EXPECT_EQ(svc.Stats().total_ops(), 1u + 16u + 64u);
}

// Counts the threads inside the wrapped index at once; more than one is a
// broken single-writer contract. Each call lingers briefly so overlapping
// executions would be caught.
class ExclusiveIndex : public OrderedIndex {
 public:
  explicit ExclusiveIndex(std::unique_ptr<OrderedIndex> inner)
      : inner_(std::move(inner)) {}

  void BulkLoad(std::span<const KeyValue> data) override {
    Guard g(this);
    inner_->BulkLoad(data);
  }
  bool Get(Key key, Value* value) const override {
    Guard g(this);
    return inner_->Get(key, value);
  }
  size_t GetBatch(std::span<const Key> keys, Value* values,
                  bool* found) const override {
    Guard g(this);
    return inner_->GetBatch(keys, values, found);
  }
  bool PredictRank(Key key, size_t* lo, size_t* hi) const override {
    Guard g(this);
    return inner_->PredictRank(key, lo, hi);
  }
  bool Insert(Key key, Value value) override {
    Guard g(this);
    return inner_->Insert(key, value);
  }
  size_t Scan(Key from, size_t count,
              std::vector<KeyValue>* out) const override {
    Guard g(this);
    return inner_->Scan(from, count, out);
  }
  size_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  size_t TotalSizeBytes() const override { return inner_->TotalSizeBytes(); }
  std::string_view Name() const override { return inner_->Name(); }
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }

  uint64_t overlaps() const { return overlaps_.load(); }

 private:
  struct Guard {
    explicit Guard(const ExclusiveIndex* index) : index_(index) {
      if (index_->inside_.fetch_add(1) != 0) index_->overlaps_.fetch_add(1);
      const uint64_t until = NowNanos() + 500;
      while (NowNanos() < until) {
      }
    }
    ~Guard() { index_->inside_.fetch_sub(1); }
    const ExclusiveIndex* index_;
  };

  std::unique_ptr<OrderedIndex> inner_;
  mutable std::atomic<int> inside_{0};
  mutable std::atomic<uint64_t> overlaps_{0};
};

ViperStore::Config SmallStoreConfig() {
  ViperStore::Config cfg;
  cfg.value_size = 64;
  cfg.pmem_capacity = size_t{64} << 20;
  return cfg;
}

TEST(ServiceCallerRuns, AtMostOneThreadExecutesASingleWriterLane) {
  // BTree is single-writer: the shard runs one lane, and callers running
  // single requests must never overlap the worker draining batches.
  std::vector<Key> keys = MakeUniformKeys(4096, 43);
  auto index = std::make_unique<ExclusiveIndex>(MakeIndex("BTree"));
  ExclusiveIndex* probe = index.get();
  Shard shard(0, std::make_unique<ViperStore>(std::move(index),
                                              SmallStoreConfig()),
              1024);
  ASSERT_EQ(shard.writers(), 1u);
  ASSERT_TRUE(shard.store()->BulkLoad(keys));
  shard.Start();

  constexpr size_t kProducers = 4;
  constexpr size_t kRounds = 300;
  const size_t vsize = shard.store()->value_size();
  std::atomic<size_t> completed{0};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(700 + p);
      // Reads land here; every key always holds its synthetic value.
      std::vector<uint8_t> outs(64 * vsize);
      std::vector<uint8_t> want(vsize);
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t n = rng.NextUnder(4) == 0 ? 64 : 1;
        std::vector<Request> batch;
        std::vector<std::atomic<bool>> fired(n);
        for (size_t i = 0; i < n; ++i) {
          Request req;
          req.key = keys[rng.NextUnder(keys.size())];
          req.type = rng.NextUnder(4) == 0 ? OpType::kUpdate : OpType::kRead;
          uint8_t* out = outs.data() + i * vsize;
          if (req.type == OpType::kRead) req.out = out;
          req.done = [&, out, key = req.key, read = req.out != nullptr,
                      flag = &fired[i]](RequestStatus st) {
            bool good = st == RequestStatus::kOk;
            if (good && read) {
              ViperStore::FillSyntheticValue(key, want.data(), vsize);
              good = std::memcmp(out, want.data(), vsize) == 0;
            }
            if (!good) bad.fetch_add(1);
            completed.fetch_add(1);
            flag->store(true);
          };
          batch.push_back(std::move(req));
        }
        ASSERT_EQ(shard.Enqueue(std::move(batch), AdmissionPolicy::kBlock),
                  Shard::EnqueueResult::kAccepted);
        // The read buffers are reused next round: wait for this one.
        for (std::atomic<bool>& f : fired) {
          while (!f.load()) std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  shard.Drain();
  EXPECT_EQ(probe->overlaps(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(completed.load(), shard.Stats().ops);
}

// Forwards to a real store; a Get of `gate` parks inside the store (and
// so holds its lane) until Release().
class GatedStore : public StoreBackend {
 public:
  GatedStore(std::unique_ptr<StoreBackend> inner, Key gate)
      : inner_(std::move(inner)), gate_(gate) {}

  void WaitParked() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  bool Get(Key key, uint8_t* out) const override {
    if (key == gate_) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return inner_->Get(key, out);
  }
  bool BulkLoad(const std::vector<Key>& keys) override {
    return inner_->BulkLoad(keys);
  }
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override {
    return inner_->BulkLoad(keys, fill);
  }
  bool Put(Key key, const uint8_t* value) override {
    return inner_->Put(key, value);
  }
  bool PutSynthetic(Key key) override { return inner_->PutSynthetic(key); }
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override {
    return inner_->GetBatch(keys, outs, found);
  }
  size_t Scan(Key from, size_t count, std::vector<Key>* out) const override {
    return inner_->Scan(from, count, out);
  }
  void Crash() override { inner_->Crash(); }
  uint64_t Recover() override { return inner_->Recover(); }
  const OrderedIndex& index() const override { return inner_->index(); }
  OrderedIndex* mutable_index() override { return inner_->mutable_index(); }
  size_t size() const override { return inner_->size(); }
  size_t value_size() const override { return inner_->value_size(); }
  std::string_view BackendName() const override {
    return inner_->BackendName();
  }
  StoreIoStats IoStats() const override { return inner_->IoStats(); }

 private:
  std::unique_ptr<StoreBackend> inner_;
  const Key gate_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool parked_ = false;
  bool open_ = false;
};

// A started BTree shard over `keys` whose store gates Gets of keys[0].
std::unique_ptr<Shard> GatedShard(const std::vector<Key>& keys,
                                  GatedStore** gate) {
  auto viper = std::make_unique<ViperStore>(MakeIndex("BTree"),
                                            SmallStoreConfig());
  EXPECT_TRUE(viper->BulkLoad(keys));
  auto store = std::make_unique<GatedStore>(std::move(viper), keys[0]);
  *gate = store.get();
  auto shard = std::make_unique<Shard>(0, std::move(store), 1024);
  shard->Start();
  return shard;
}

// Runs a single Get of keys[0] from its own thread: on the idle lane it
// executes there and parks in the gated store.
std::thread ParkCallerRunGet(Shard* shard, Key gate, RequestStatus* status,
                             std::atomic<int>* seq, int* done_at) {
  return std::thread([=] {
    std::vector<Request> batch(1);
    batch[0].key = gate;
    batch[0].done = [=](RequestStatus st) {
      *status = st;
      *done_at = seq->fetch_add(1) + 1;
    };
    EXPECT_EQ(shard->Enqueue(std::move(batch), AdmissionPolicy::kBlock),
              Shard::EnqueueResult::kAccepted);
  });
}

TEST(ServiceCallerRuns, SingleRequestQueuesBehindBusyLane) {
  std::vector<Key> keys = MakeUniformKeys(512, 47);
  GatedStore* gate = nullptr;
  std::unique_ptr<Shard> shard = GatedShard(keys, &gate);
  RequestStatus held_status = RequestStatus::kShutdown;
  std::atomic<int> seq{0};
  int held_at = 0;
  std::thread holder =
      ParkCallerRunGet(shard.get(), keys[0], &held_status, &seq, &held_at);
  gate->WaitParked();

  // The lane is held: a write and then a read of one key, each a single
  // request, both queue (neither completes inside Enqueue) and run in
  // submission order once the lane frees.
  const Key key = keys[1];
  const size_t vsize = shard->store()->value_size();
  std::vector<uint8_t> value(vsize, 0xab);
  std::vector<uint8_t> out(vsize, 0);
  int write_at = 0;
  int read_at = 0;
  RequestStatus write_status = RequestStatus::kShutdown;
  RequestStatus read_status = RequestStatus::kShutdown;
  std::thread::id read_thread;
  std::vector<Request> write(1);
  write[0].type = OpType::kUpdate;
  write[0].key = key;
  write[0].value = value.data();
  write[0].done = [&](RequestStatus st) {
    write_status = st;
    write_at = seq.fetch_add(1) + 1;
  };
  ASSERT_EQ(shard->Enqueue(std::move(write), AdmissionPolicy::kBlock),
            Shard::EnqueueResult::kAccepted);
  std::vector<Request> read(1);
  read[0].key = key;
  read[0].out = out.data();
  read[0].done = [&](RequestStatus st) {
    read_status = st;
    read_thread = std::this_thread::get_id();
    read_at = seq.fetch_add(1) + 1;
  };
  ASSERT_EQ(shard->Enqueue(std::move(read), AdmissionPolicy::kBlock),
            Shard::EnqueueResult::kAccepted);
  EXPECT_EQ(seq.load(), 0);

  gate->Release();
  holder.join();
  shard->Drain();
  EXPECT_EQ(held_status, RequestStatus::kOk);
  EXPECT_EQ(write_status, RequestStatus::kOk);
  EXPECT_EQ(read_status, RequestStatus::kOk);
  EXPECT_EQ(held_at, 1);
  EXPECT_EQ(write_at, 2);
  EXPECT_EQ(read_at, 3);
  EXPECT_EQ(out, value);
  EXPECT_NE(read_thread, std::this_thread::get_id());
}

TEST(ServiceCallerRuns, CrashAndStopWaitForCallerRunRequest) {
  std::vector<Key> keys = MakeUniformKeys(512, 53);
  for (bool crash : {true, false}) {
    SCOPED_TRACE(crash ? "CrashAndRecover" : "Stop");
    GatedStore* gate = nullptr;
    std::unique_ptr<Shard> shard = GatedShard(keys, &gate);
    RequestStatus status = RequestStatus::kShutdown;
    std::atomic<int> seq{0};
    int done_at = 0;
    std::thread holder =
        ParkCallerRunGet(shard.get(), keys[0], &status, &seq, &done_at);
    gate->WaitParked();

    std::atomic<int> returned_at{0};
    std::thread admin([&] {
      if (crash) {
        shard->CrashAndRecover();
      } else {
        shard->Stop();
      }
      returned_at.store(seq.fetch_add(1) + 1);
    });
    // Long enough for an unguarded Stop to join the idle worker and
    // return (and a crash to tear the store out from under the request).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(returned_at.load(), 0);

    gate->Release();
    admin.join();
    holder.join();
    EXPECT_EQ(status, RequestStatus::kOk);
    EXPECT_EQ(done_at, 1);
    EXPECT_EQ(returned_at.load(), 2);
  }
}

uint64_t CallerRuns(const KvService& svc) {
  uint64_t n = 0;
  for (const ShardStats& s : svc.Stats().shards) n += s.caller_runs;
  return n;
}

// A submission that spans shards queues every per-shard piece but its
// last before it runs anything on the submitting thread, so the shards
// still work in parallel: at most one piece runs there.
TEST(ServiceCallerRuns, MultiShardSubmissionRunsOnlyItsLastPieceInline) {
  std::vector<Key> keys = MakeUniformKeys(4096, 59);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  const std::thread::id self = std::this_thread::get_id();

  // One read in the first shard and one in the last: two one-request
  // pieces, each on an idle lane.
  std::mutex m;
  std::vector<std::thread::id> ran;
  std::vector<Request> batch(2);
  batch[0].key = keys.front();
  batch[1].key = keys.back();
  for (Request& req : batch) {
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      std::lock_guard<std::mutex> lock(m);
      ran.push_back(std::this_thread::get_id());
    };
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(std::count(ran.begin(), ran.end(), self), 1);
  EXPECT_EQ(CallerRuns(svc), 1u);

  // A scan from the first shard across all four: three sub-scans queue
  // for their workers, the last runs here.
  std::vector<Key> got;
  EXPECT_EQ(svc.Scan(keys[10], 4000, &got), RequestStatus::kOk);
  EXPECT_EQ(got, std::vector<Key>(keys.begin() + 10, keys.begin() + 4010));
  EXPECT_EQ(CallerRuns(svc), 2u);
}

TEST(ServiceCallerRuns, EnqueueWithoutCallerRunQueuesASingleRequest) {
  std::vector<Key> keys = MakeUniformKeys(512, 61);
  Shard shard(0, std::make_unique<ViperStore>(MakeIndex("BTree"),
                                              SmallStoreConfig()),
              1024);
  ASSERT_TRUE(shard.store()->BulkLoad(keys));
  shard.Start();
  std::atomic<bool> fired{false};
  std::thread::id ran;
  std::vector<Request> batch(1);
  batch[0].key = keys[0];
  batch[0].done = [&](RequestStatus st) {
    EXPECT_EQ(st, RequestStatus::kOk);
    ran = std::this_thread::get_id();
    fired.store(true);
  };
  ASSERT_EQ(shard.Enqueue(std::move(batch), AdmissionPolicy::kBlock,
                          /*caller_may_run=*/false),
            Shard::EnqueueResult::kAccepted);
  shard.Drain();
  ASSERT_TRUE(fired.load());
  EXPECT_NE(ran, std::this_thread::get_id());
  EXPECT_EQ(shard.Stats().caller_runs, 0u);
}

}  // namespace
}  // namespace pieces::service

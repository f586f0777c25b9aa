// ViperStore integration tests: the end-to-end KV path over every index,
// plus PMem accounting and crash recovery (Fig. 16 semantics).
#include "store/viper.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/registry.h"
#include "store/sim_pmem.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

ViperStore::Config SmallConfig() {
  ViperStore::Config cfg;
  cfg.value_size = 200;
  cfg.pmem_capacity = size_t{64} << 20;
  return cfg;
}

TEST(SimPmemTest, AllocateAndAccount) {
  SimulatedPmem pmem(1024);
  uint8_t* a = pmem.Allocate(100);
  ASSERT_NE(a, nullptr);
  uint8_t* b = pmem.Allocate(100);
  ASSERT_NE(b, nullptr);
  EXPECT_GE(b - a, 100);
  uint64_t data = 42;
  pmem.Write(a, &data, sizeof(data));
  uint64_t back = 0;
  pmem.Read(a, &back, sizeof(back));
  EXPECT_EQ(back, 42u);
  EXPECT_EQ(pmem.bytes_written(), sizeof(data));
  EXPECT_EQ(pmem.bytes_read(), sizeof(back));
}

TEST(SimPmemTest, ExhaustionReturnsNull) {
  SimulatedPmem pmem(256);
  EXPECT_NE(pmem.Allocate(200), nullptr);
  EXPECT_EQ(pmem.Allocate(200), nullptr);
}

TEST(SimPmemTest, LatencyInjectionSlowsAccess) {
  SimulatedPmem fast(4096, 0, 0);
  SimulatedPmem slow(4096, 20000, 20000);
  uint8_t* fa = fast.Allocate(8);
  uint8_t* sa = slow.Allocate(8);
  uint64_t v = 7;
  auto time_writes = [&](SimulatedPmem& p, uint8_t* addr) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i) p.Write(addr, &v, sizeof(v));
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  EXPECT_GT(time_writes(slow, sa), time_writes(fast, fa) + 500000);
}

class ViperStoreTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ViperStoreTest, PutGetRoundtrip) {
  ViperStore store(MakeIndex(GetParam()), SmallConfig());
  std::vector<Key> keys = MakeUniformKeys(5000, 3);
  ASSERT_TRUE(store.BulkLoad(keys));
  std::vector<uint8_t> value(200);
  for (size_t i = 0; i < keys.size(); i += 7) {
    ASSERT_TRUE(store.Get(keys[i], value.data())) << GetParam();
    // Synthetic values are key-derived: verify a prefix.
    EXPECT_EQ(value[0], static_cast<uint8_t>(keys[i] & 0xff));
  }
  Value unused;
  (void)unused;
  EXPECT_EQ(store.size(), keys.size());
}

TEST_P(ViperStoreTest, RecoveryRebuildsIndexExactly) {
  ViperStore store(MakeIndex(GetParam()), SmallConfig());
  std::vector<Key> keys = MakeUniformKeys(5000, 5);
  ASSERT_TRUE(store.BulkLoad(keys));
  uint64_t nanos = store.Recover();
  EXPECT_GT(nanos, 0u);
  std::vector<uint8_t> value(200);
  for (size_t i = 0; i < keys.size(); i += 11) {
    ASSERT_TRUE(store.Get(keys[i], value.data())) << GetParam();
  }
  EXPECT_EQ(store.size(), keys.size());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ViperStoreTest,
                         ::testing::ValuesIn(AllIndexNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// GetBatch must return byte-identical payloads and identical found flags
// to a loop of single-key Gets, for present and absent keys alike, and
// must amortize the injected read latency: all bytes accounted, one
// latency charge per batch.
TEST_P(ViperStoreTest, GetBatchMatchesSingleKeyGets) {
  ViperStore store(MakeIndex(GetParam()), SmallConfig());
  std::vector<Key> keys = MakeUniformKeys(5000, 3);
  ASSERT_TRUE(store.BulkLoad(keys));

  Rng rng(51);
  std::vector<Key> probes;
  for (int i = 0; i < 1000; ++i) {
    probes.push_back(i % 2 == 0 ? keys[rng.NextUnder(keys.size())]
                                : rng.Next());
  }
  std::vector<std::vector<uint8_t>> batch_values(
      probes.size(), std::vector<uint8_t>(store.value_size(), 0xAB));
  std::vector<uint8_t*> outs;
  for (auto& v : batch_values) outs.push_back(v.data());
  std::unique_ptr<bool[]> found(new bool[probes.size()]);

  uint64_t bytes_before = store.pmem().bytes_read();
  size_t hits = store.GetBatch(probes, outs.data(), found.get());

  std::vector<uint8_t> want(store.value_size());
  size_t want_hits = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    bool present = store.Get(probes[i], want.data());
    want_hits += present ? 1 : 0;
    ASSERT_EQ(found[i], present) << GetParam() << " key=" << probes[i];
    if (present) {
      EXPECT_EQ(std::memcmp(batch_values[i].data(), want.data(),
                            store.value_size()),
                0)
          << GetParam() << " key=" << probes[i];
    }
  }
  EXPECT_EQ(hits, want_hits) << GetParam();
  // Every found value's bytes were accounted by the batch read.
  EXPECT_GE(store.pmem().bytes_read() - bytes_before,
            hits * store.value_size());
}

TEST(ViperStoreTest2, ReadBatchChargesLatencyOncePerBatch) {
  // One batched read of N records must busy-wait roughly one latency
  // charge, not N: the batch path models overlapped misses.
  constexpr uint64_t kLatencyNs = 200000;
  SimulatedPmem pmem(1 << 20, kLatencyNs, 0);
  constexpr size_t kRecords = 32;
  constexpr size_t kBytes = 64;
  const uint8_t* srcs[kRecords];
  uint8_t* dsts[kRecords];
  std::vector<std::vector<uint8_t>> dst_bufs(kRecords,
                                             std::vector<uint8_t>(kBytes));
  for (size_t i = 0; i < kRecords; ++i) {
    uint8_t* p = pmem.Allocate(kBytes);
    ASSERT_NE(p, nullptr);
    std::vector<uint8_t> payload(kBytes, static_cast<uint8_t>(i + 1));
    pmem.Write(p, payload.data(), kBytes);
    srcs[i] = p;
    dsts[i] = dst_bufs[i].data();
  }

  uint64_t bytes_before = pmem.bytes_read();
  auto t0 = std::chrono::steady_clock::now();
  pmem.ReadBatch(srcs, dsts, kBytes, kRecords);
  uint64_t batch_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  // Correct payloads, all bytes accounted.
  for (size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(dst_bufs[i][0], static_cast<uint8_t>(i + 1));
  }
  EXPECT_EQ(pmem.bytes_read() - bytes_before, kRecords * kBytes);
  // One charge, not kRecords: allow generous scheduling slack but stay
  // far below the serialized cost.
  EXPECT_LT(batch_ns, kLatencyNs * kRecords / 4);
}

TEST(ViperStoreTest2, UpdatesWriteOutOfPlaceAndRecoverNewest) {
  ViperStore store(MakeIndex("BTree"), SmallConfig());
  std::vector<Key> keys = MakeUniformKeys(100, 7);
  ASSERT_TRUE(store.BulkLoad(keys));
  std::vector<uint8_t> value(200, 0xEE);
  ASSERT_TRUE(store.Put(keys[0], value.data()));

  std::vector<uint8_t> got(200);
  ASSERT_TRUE(store.Get(keys[0], got.data()));
  EXPECT_EQ(got[0], 0xEE);

  // Recovery must keep the newest version despite two records on PMem.
  store.Recover();
  EXPECT_EQ(store.size(), keys.size());
  ASSERT_TRUE(store.Get(keys[0], got.data()));
  EXPECT_EQ(got[0], 0xEE);
}

TEST(ViperStoreTest2, ScanReadsValues) {
  ViperStore store(MakeIndex("ALEX"), SmallConfig());
  std::vector<Key> keys = MakeSequentialKeys(1000, 100, 10);
  ASSERT_TRUE(store.BulkLoad(keys));
  uint64_t reads_before = store.pmem().bytes_read();
  std::vector<Key> out;
  EXPECT_EQ(store.Scan(100, 50, &out), 50u);
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0], 100u);
  EXPECT_GT(store.pmem().bytes_read(), reads_before);
}

TEST(ViperStoreTest2, TableIIISizeOrdering) {
  ViperStore store(MakeIndex("PGM"), SmallConfig());
  std::vector<Key> keys = MakeUniformKeys(20000, 9);
  ASSERT_TRUE(store.BulkLoad(keys));
  // Index-structure bytes << index+keys << index+KV (Table III pattern).
  EXPECT_LT(store.IndexStructureBytes(), store.IndexPlusKeyBytes());
  EXPECT_LT(store.IndexPlusKeyBytes(), store.IndexPlusKvBytes());
}

// A load that does not fit fails, and stays failed: no record of it is
// written, so a later Recover() cannot bring back a prefix of it.
TEST(ViperStoreTest2, CapacityExhaustion) {
  ViperStore::Config cfg;
  cfg.pmem_capacity = 16 << 10;
  ViperStore store(MakeIndex("BTree"), cfg);
  std::vector<Key> keys = MakeSequentialKeys(1000, 1, 1);
  EXPECT_FALSE(store.BulkLoad(keys));
  EXPECT_EQ(store.size(), 0u);
  store.Recover();
  EXPECT_EQ(store.size(), 0u);
  std::vector<uint8_t> buf(store.value_size());
  size_t readable = 0;
  for (Key k : keys) readable += store.Get(k, buf.data()) ? 1 : 0;
  EXPECT_EQ(readable, 0u) << "a failed load was resurrected";
}

}  // namespace
}  // namespace pieces

// The cross-cutting conformance suite: every index in the registry must
// behave identically through the OrderedIndex interface. Parameterized
// over (index name x dataset), mirroring the paper's requirement that all
// indexes run in the same environment.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/ordered_index.h"
#include "index/registry.h"
#include "learned/alex.h"
#include "differential_harness.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace pieces {
namespace {

using ConformanceParam = std::tuple<std::string, std::string>;

class IndexConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  void SetUp() override {
    index_ = MakeIndex(std::get<0>(GetParam()));
    ASSERT_NE(index_, nullptr);
    keys_ = MakeKeys(std::get<1>(GetParam()), kN, 17);
    data_.reserve(keys_.size());
    for (Key k : keys_) data_.push_back({k, k ^ kValueTag});
  }

  // CrashRecoverConformance's body on one store medium.
  void CrashRecoverOn(const char* medium);

  static constexpr size_t kN = 20000;
  static constexpr Value kValueTag = 0x5a5a5a5a5a5a5a5aull;

  std::unique_ptr<OrderedIndex> index_;
  std::vector<Key> keys_;
  std::vector<KeyValue> data_;
};

TEST_P(IndexConformanceTest, BulkLoadThenGetEveryKey) {
  index_->BulkLoad(data_);
  for (const KeyValue& kv : data_) {
    Value v = 0;
    ASSERT_TRUE(index_->Get(kv.key, &v)) << index_->Name() << " key "
                                         << kv.key;
    EXPECT_EQ(v, kv.value);
  }
}

TEST_P(IndexConformanceTest, AbsentKeysAreAbsent) {
  index_->BulkLoad(data_);
  std::set<Key> present(keys_.begin(), keys_.end());
  Rng rng(23);
  size_t checked = 0;
  while (checked < 2000) {
    Key probe = rng.Next();  // Skip the ~0ull sentinel, keep odd keys.
    if (probe == ~0ull || present.count(probe)) continue;
    Value v;
    EXPECT_FALSE(index_->Get(probe, &v)) << index_->Name();
    ++checked;
  }
  // Also probe just-off neighbors of stored keys (the hard case for
  // learned indexes' bounded searches).
  for (size_t i = 0; i < keys_.size(); i += 97) {
    for (Key probe : {keys_[i] - 1, keys_[i] + 1}) {
      if (present.count(probe) || probe == ~0ull) continue;
      Value v;
      EXPECT_FALSE(index_->Get(probe, &v)) << index_->Name();
    }
  }
}

TEST_P(IndexConformanceTest, ScanMatchesReference) {
  if (!index_->SupportsScan()) GTEST_SKIP();
  index_->BulkLoad(data_);
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    Key from = trial % 2 == 0 ? keys_[rng.NextUnder(keys_.size())]
                              : rng.Next() % (~0ull - 1);
    size_t want = 1 + rng.NextUnder(200);
    std::vector<KeyValue> got;
    size_t n = index_->Scan(from, want, &got);
    ASSERT_EQ(n, got.size());

    size_t ref_begin = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), from) - keys_.begin());
    size_t ref_count = std::min(want, keys_.size() - ref_begin);
    ASSERT_EQ(n, ref_count) << index_->Name() << " from=" << from;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].key, keys_[ref_begin + i]) << index_->Name();
      EXPECT_EQ(got[i].value, keys_[ref_begin + i] ^ kValueTag);
    }
  }
}

TEST_P(IndexConformanceTest, ScanPastEndAndEmpty) {
  if (!index_->SupportsScan()) GTEST_SKIP();
  index_->BulkLoad(data_);
  std::vector<KeyValue> got;
  EXPECT_EQ(index_->Scan(keys_.back() + 1, 10, &got), 0u);
  EXPECT_EQ(index_->Scan(keys_.front(), 0, &got), 0u);
}

TEST_P(IndexConformanceTest, InsertNewKeysThenGetAll) {
  if (!index_->SupportsInsert()) {
    EXPECT_FALSE(index_->Insert(1, 2));
    return;
  }
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(keys_, 4, &load, &inserts);
  std::vector<KeyValue> load_data;
  for (Key k : load) load_data.push_back({k, k ^ kValueTag});
  index_->BulkLoad(load_data);
  for (Key k : inserts) {
    ASSERT_TRUE(index_->Insert(k, k ^ kValueTag)) << index_->Name();
  }
  for (Key k : keys_) {
    Value v = 0;
    ASSERT_TRUE(index_->Get(k, &v)) << index_->Name() << " key " << k;
    EXPECT_EQ(v, k ^ kValueTag);
  }
}

TEST_P(IndexConformanceTest, InsertIsUpsert) {
  if (!index_->SupportsInsert()) GTEST_SKIP();
  index_->BulkLoad(data_);
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    Key k = keys_[rng.NextUnder(keys_.size())];
    ASSERT_TRUE(index_->Insert(k, 777));
    Value v = 0;
    ASSERT_TRUE(index_->Get(k, &v));
    EXPECT_EQ(v, 777u) << index_->Name();
  }
}

TEST_P(IndexConformanceTest, InsertIntoEmptyIndex) {
  if (!index_->SupportsInsert()) GTEST_SKIP();
  index_->BulkLoad({});
  Value v;
  EXPECT_FALSE(index_->Get(keys_[0], &v));
  for (size_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(index_->Insert(keys_[i], i));
  }
  for (size_t i = 0; i < 3000; ++i) {
    Value got = 0;
    ASSERT_TRUE(index_->Get(keys_[i], &got)) << index_->Name();
    EXPECT_EQ(got, i);
  }
}

TEST_P(IndexConformanceTest, ScanAfterInserts) {
  if (!index_->SupportsInsert() || !index_->SupportsScan()) GTEST_SKIP();
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(keys_, 3, &load, &inserts);
  std::vector<KeyValue> load_data;
  for (Key k : load) load_data.push_back({k, k ^ kValueTag});
  index_->BulkLoad(load_data);
  for (Key k : inserts) ASSERT_TRUE(index_->Insert(k, k ^ kValueTag));

  Rng rng(37);
  for (int trial = 0; trial < 30; ++trial) {
    Key from = keys_[rng.NextUnder(keys_.size())];
    size_t want = 1 + rng.NextUnder(150);
    std::vector<KeyValue> got;
    size_t n = index_->Scan(from, want, &got);
    size_t ref_begin = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), from) - keys_.begin());
    size_t ref_count = std::min(want, keys_.size() - ref_begin);
    ASSERT_EQ(n, ref_count) << index_->Name();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].key, keys_[ref_begin + i]) << index_->Name();
    }
  }
}

// Differential contract: GetBatch must be observationally identical to
// keys.size() single-key Gets — same found flags, same values, same hit
// count — for present keys, absent keys, and near-miss neighbors, at
// every batch size including ones that straddle the fast path's tiles.
TEST_P(IndexConformanceTest, GetBatchMatchesSingleKeyGets) {
  index_->BulkLoad(data_);
  Rng rng(41);
  std::vector<Key> probes;
  probes.reserve(6000);
  for (int i = 0; i < 6000; ++i) {
    switch (i % 3) {
      case 0:
        probes.push_back(keys_[rng.NextUnder(keys_.size())]);
        break;
      case 1:  // Near-miss neighbors (hard for bounded windows).
        probes.push_back(keys_[rng.NextUnder(keys_.size())] +
                         (rng.NextUnder(3) - 1));
        break;
      default:
        probes.push_back(rng.Next());
    }
  }
  for (size_t batch : {size_t{1}, size_t{2}, size_t{7}, size_t{16},
                       size_t{33}, size_t{256}}) {
    for (size_t base = 0; base + batch <= probes.size(); base += 977) {
      std::span<const Key> span(probes.data() + base, batch);
      std::vector<Value> got_values(batch, 0);
      std::vector<Value> want_values(batch, 0);
      std::unique_ptr<bool[]> got_found(new bool[batch]);
      size_t hits = index_->GetBatch(span, got_values.data(),
                                     got_found.get());
      size_t want_hits = 0;
      for (size_t i = 0; i < batch; ++i) {
        bool want = index_->Get(span[i], &want_values[i]);
        want_hits += want ? 1 : 0;
        ASSERT_EQ(got_found[i], want)
            << index_->Name() << " batch=" << batch << " key=" << span[i];
        if (want) {
          EXPECT_EQ(got_values[i], want_values[i])
              << index_->Name() << " key=" << span[i];
        }
      }
      EXPECT_EQ(hits, want_hits) << index_->Name() << " batch=" << batch;
    }
  }
}

TEST_P(IndexConformanceTest, GetBatchOnEmptyIndex) {
  index_->BulkLoad({});
  std::vector<Key> probes(100);
  for (size_t i = 0; i < probes.size(); ++i) probes[i] = keys_[i];
  std::vector<Value> values(probes.size(), 0);
  std::unique_ptr<bool[]> found(new bool[probes.size()]);
  EXPECT_EQ(index_->GetBatch(probes, values.data(), found.get()), 0u)
      << index_->Name();
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_FALSE(found[i]) << index_->Name();
  }
}

// The batch path must also agree after inserts have perturbed whatever
// build-time structure the override's predictions rely on (buffers,
// gapped arrays, LSM levels, group splits).
TEST_P(IndexConformanceTest, GetBatchAfterInserts) {
  if (!index_->SupportsInsert()) GTEST_SKIP();
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(keys_, 4, &load, &inserts);
  std::vector<KeyValue> load_data;
  for (Key k : load) load_data.push_back({k, k ^ kValueTag});
  index_->BulkLoad(load_data);
  for (Key k : inserts) ASSERT_TRUE(index_->Insert(k, k ^ kValueTag));

  Rng rng(43);
  std::vector<Key> probes;
  for (int i = 0; i < 2048; ++i) {
    probes.push_back(i % 2 == 0 ? keys_[rng.NextUnder(keys_.size())]
                                : rng.Next());
  }
  std::vector<Value> got_values(probes.size(), 0);
  std::unique_ptr<bool[]> got_found(new bool[probes.size()]);
  size_t hits =
      index_->GetBatch(probes, got_values.data(), got_found.get());
  size_t want_hits = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    Value want_value = 0;
    bool want = index_->Get(probes[i], &want_value);
    want_hits += want ? 1 : 0;
    ASSERT_EQ(got_found[i], want)
        << index_->Name() << " key=" << probes[i];
    if (want) {
      EXPECT_EQ(got_values[i], want_value) << index_->Name();
    }
  }
  EXPECT_EQ(hits, want_hits) << index_->Name();
}

TEST_P(IndexConformanceTest, SizeAccountingIsPositive) {
  index_->BulkLoad(data_);
  EXPECT_GT(index_->IndexSizeBytes(), 0u) << index_->Name();
  EXPECT_GE(index_->TotalSizeBytes(), index_->IndexSizeBytes());
}

TEST_P(IndexConformanceTest, StatsAreSane) {
  index_->BulkLoad(data_);
  IndexStats s = index_->Stats();
  EXPECT_GE(s.leaf_count, 1u) << index_->Name();
  EXPECT_GE(s.avg_depth, 0.0);
  EXPECT_LT(s.avg_depth, 64.0);
}

// Crash-recover conformance, end to end through the store on both media:
// after a power failure the recovered index must answer Get and Scan
// exactly as the live store did, and Recover must be idempotent (a second
// recovery without a crash changes nothing). Runs for every index —
// read-only indexes recover the bulk-load image, updatable ones a dirtied
// store with stale out-of-place slots recovery has to shadow by seqno.
TEST_P(IndexConformanceTest, CrashRecoverConformance) {
  for (const char* medium : {"viper", "disk"}) {
    SCOPED_TRACE(medium);
    CrashRecoverOn(medium);
  }
}

void IndexConformanceTest::CrashRecoverOn(const char* medium) {
  constexpr size_t kValueSize = 16;
  std::unique_ptr<SlottedStore> store =
      MakeTestStore(medium, MakeIndex(std::get<0>(GetParam())), kValueSize);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(keys_, 4, &load, &inserts);
  ASSERT_TRUE(store->BulkLoad(load));
  std::vector<uint8_t> updated_value(kValueSize, 0xcd);
  size_t fresh_inserts = 0;
  if (store->index().SupportsInsert()) {
    for (size_t i = 0; i < inserts.size(); i += 2) {
      ASSERT_TRUE(store->PutSynthetic(inserts[i]));
      ++fresh_inserts;
    }
    // Distinct payloads so a recovery that resurrects the stale slot
    // (instead of the highest-seqno one) is caught byte-for-byte.
    for (size_t i = 0; i < load.size(); i += 31) {
      ASSERT_TRUE(store->Put(load[i], updated_value.data()));
    }
  }

  // Capture the live store's answers, then pull the plug.
  auto observe = [&](std::vector<uint8_t>* payloads, std::vector<bool>* found,
                     std::vector<std::vector<Key>>* scans) {
    std::vector<uint8_t> buf(kValueSize);
    for (Key k : keys_) {
      bool present = store->Get(k, buf.data());
      found->push_back(present);
      if (present) {
        payloads->insert(payloads->end(), buf.begin(), buf.end());
      }
    }
    if (store->index().SupportsScan()) {
      for (size_t i = 0; i < keys_.size(); i += keys_.size() / 7 + 1) {
        std::vector<Key> scan_keys;
        store->Scan(keys_[i], 100, &scan_keys);
        scans->push_back(std::move(scan_keys));
      }
    }
  };
  std::vector<uint8_t> pre_payloads;
  std::vector<bool> pre_found;
  std::vector<std::vector<Key>> pre_scans;
  observe(&pre_payloads, &pre_found, &pre_scans);
  // Recovery counts distinct keys; the live counter tallies acknowledged
  // puts (updates included), so compare against the exact key population.
  const size_t unique_keys = load.size() + fresh_inserts;

  store->Crash();
  store->Recover();

  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(store->size(), unique_keys) << "round " << round;
    std::vector<uint8_t> post_payloads;
    std::vector<bool> post_found;
    std::vector<std::vector<Key>> post_scans;
    observe(&post_payloads, &post_found, &post_scans);
    ASSERT_EQ(post_found, pre_found) << "round " << round;
    ASSERT_EQ(post_payloads, pre_payloads) << "round " << round;
    ASSERT_EQ(post_scans, pre_scans) << "round " << round;
    // Round 2 checks idempotence: recover again with no crash at all.
    store->Recover();
  }
}

TEST_P(IndexConformanceTest, RebuildAfterBulkLoadTwice) {
  index_->BulkLoad(data_);
  // Second bulk load fully replaces the first (recovery semantics).
  std::vector<KeyValue> half(data_.begin(),
                             data_.begin() + static_cast<ptrdiff_t>(kN / 2));
  index_->BulkLoad(half);
  Value v;
  EXPECT_TRUE(index_->Get(half.front().key, &v));
  EXPECT_TRUE(index_->Get(half.back().key, &v));
  // A key only in the dropped half must be gone.
  EXPECT_FALSE(index_->Get(data_[kN / 2 + 1].key, &v)) << index_->Name();
}

std::vector<std::string> AllNames() { return AllIndexNames(); }

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexConformanceTest,
    ::testing::Combine(::testing::ValuesIn(AllNames()),
                       ::testing::Values("ycsb", "osm", "face",
                                         "sequential")),
    [](const ::testing::TestParamInfo<ConformanceParam>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ALEX with a small bulk-load leaf target on clustered keys. OSM-like
// cell ids put hundreds of keys within a few thousand of each other near
// 2^62, where an inner model's double-precision predictions cannot tell
// them apart; a bulk load must still terminate (not recurse on the same
// range), serve every key, take inserts, and survive the rebuild crash
// recovery performs. FACE-like keys are the skewed case without such
// clusters.
using SmallLeafParam = std::tuple<std::string, size_t>;

class AlexSmallLeafConformance
    : public ::testing::TestWithParam<SmallLeafParam> {};

TEST_P(AlexSmallLeafConformance, BulkLoadInsertScanRecover) {
  constexpr size_t kKeys = 100000;
  constexpr Value kTag = 0x5a5a5a5a5a5a5a5aull;
  Alex::Config config;
  config.target_leaf_keys = std::get<1>(GetParam());
  Alex alex(config);
  std::vector<Key> keys = MakeKeys(std::get<0>(GetParam()), kKeys, 17);
  // Every 8th key is held out of the load and inserted afterwards.
  std::vector<KeyValue> load;
  std::vector<Key> held;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 8 == 7) {
      held.push_back(keys[i]);
    } else {
      load.push_back({keys[i], keys[i] ^ kTag});
    }
  }
  alex.BulkLoad(load);
  for (const KeyValue& kv : load) {
    Value v = 0;
    ASSERT_TRUE(alex.Get(kv.key, &v)) << "loaded key " << kv.key;
    ASSERT_EQ(v, kv.value);
  }
  for (Key k : held) {
    Value v = 0;
    ASSERT_FALSE(alex.Get(k, &v)) << "held-out key " << k;
  }
  for (Key k : held) ASSERT_TRUE(alex.Insert(k, k ^ kTag));

  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t begin = rng.NextUnder(keys.size());
    const size_t want = 1 + rng.NextUnder(300);
    std::vector<KeyValue> got;
    ASSERT_EQ(alex.Scan(keys[begin], want, &got),
              std::min(want, keys.size() - begin));
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, keys[begin + i]);
      ASSERT_EQ(got[i].value, keys[begin + i] ^ kTag);
    }
  }

  // Recovery rebuilds from every key, inserted ones included.
  std::vector<KeyValue> all;
  all.reserve(keys.size());
  for (Key k : keys) all.push_back({k, k ^ kTag});
  alex.BulkLoad(all);
  for (const KeyValue& kv : all) {
    Value v = 0;
    ASSERT_TRUE(alex.Get(kv.key, &v)) << "rebuilt key " << kv.key;
    ASSERT_EQ(v, kv.value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, AlexSmallLeafConformance,
    ::testing::Combine(::testing::Values("osm", "face"),
                       ::testing::Values(size_t{128}, size_t{256})),
    [](const ::testing::TestParamInfo<SmallLeafParam>& info) {
      return std::get<0>(info.param) + "_leaf" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pieces

// Differential test for the sharded KV service: replay a seeded mixed
// workload through KvService and through a trivially-correct ordered-set
// oracle, comparing every read status, every read payload (values are
// the store's deterministic synthetic function of the key, so the oracle
// only tracks presence), every scan result, and the final state.
//
// The suite name contains "Differential" on purpose: the CI sanitizer
// matrix (ASan/TSan) selects suites by that pattern, and the concurrent
// phase below is exactly the kind of test TSan is for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "service/router.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace pieces::service {
namespace {

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

ServiceConfig TestConfig(size_t shards) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = 1024;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.store.value_size = 64;
  cfg.store.pmem_capacity = size_t{128} << 20;
  return cfg;
}

// Value-tracking oracle for the caller-run tests: writes carry explicit
// payloads (distinct per write), so a read must return the newest
// payload written before it, not merely a present key.
class PayloadOracle {
 public:
  PayloadOracle(const std::vector<Key>& load, size_t value_size)
      : value_size_(value_size) {
    for (Key k : load) values_[k] = Synthetic(k);
  }

  // A fresh payload for the `n`-th write of `key`.
  std::vector<uint8_t> NextValue(Key key, uint64_t n) const {
    std::vector<uint8_t> v(value_size_, static_cast<uint8_t>(n * 131 + 7));
    std::memcpy(v.data(), &key, sizeof(key));
    std::memcpy(v.data() + sizeof(key), &n, sizeof(n));
    return v;
  }
  void Write(Key key, std::vector<uint8_t> value) {
    values_[key] = std::move(value);
  }
  void WriteSynthetic(Key key) { values_[key] = Synthetic(key); }
  // nullptr when absent.
  const std::vector<uint8_t>* Find(Key key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  std::set<Key> Keys() const {
    std::set<Key> keys;
    for (const auto& kv : values_) keys.insert(kv.first);
    return keys;
  }

 private:
  std::vector<uint8_t> Synthetic(Key key) const {
    std::vector<uint8_t> v(value_size_);
    ViperStore::FillSyntheticValue(key, v.data(), v.size());
    return v;
  }

  size_t value_size_;
  std::map<Key, std::vector<uint8_t>> values_;
};

// Compares the full service state against the oracle key set: key count,
// a whole-keyspace scan, and a payload check on a sample of keys — the
// synthetic value, or the written one when `payloads` tracks them.
void ExpectFinalStateMatches(KvService* svc, const std::set<Key>& oracle,
                             const PayloadOracle* payloads = nullptr) {
  // ViperStore counts every successful put (updates claim a fresh slot,
  // out-of-place), so TotalKeys is an upper bound on distinct keys; the
  // whole-keyspace scan below is the exact distinct-key comparison.
  ASSERT_GE(svc->TotalKeys(), oracle.size());

  std::vector<Key> scanned;
  ASSERT_EQ(svc->Scan(0, oracle.size() + 16, &scanned), RequestStatus::kOk);
  std::vector<Key> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(scanned, expected);

  std::vector<uint8_t> got(svc->value_size());
  std::vector<uint8_t> want(svc->value_size());
  size_t i = 0;
  for (Key k : oracle) {
    if (i++ % 37 != 0) continue;  // Sample; full scan already compared keys.
    ASSERT_EQ(svc->Get(k, got.data()), RequestStatus::kOk) << k;
    if (payloads != nullptr) {
      want = *payloads->Find(k);
    } else {
      ViperStore::FillSyntheticValue(k, want.data(), want.size());
    }
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0) << k;
  }
}

class ServiceDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ServiceDifferentialTest, SequentialMixedWorkloadMatchesOracle) {
  std::vector<Key> all = MakeUniformKeys(4096, 31);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  KvService svc(GetParam(), TestConfig(4), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  std::set<Key> oracle(load.begin(), load.end());

  WorkloadSpec spec;
  spec.read_pct = 40;
  spec.update_pct = 25;
  spec.insert_pct = 20;
  spec.rmw_pct = 10;
  spec.scan_pct = 5;
  spec.scan_len = 64;
  std::vector<Op> ops = GenerateOps(spec, 3000, load, inserts, 1234);

  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> want(svc.value_size());
  for (const Op& op : ops) {
    switch (op.type) {
      case OpType::kRead: {
        RequestStatus st = svc.Get(op.key, got.data());
        if (oracle.count(op.key) != 0) {
          ASSERT_EQ(st, RequestStatus::kOk) << op.key;
          ViperStore::FillSyntheticValue(op.key, want.data(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << op.key;
        } else {
          ASSERT_EQ(st, RequestStatus::kNotFound) << op.key;
        }
        break;
      }
      case OpType::kUpdate:
      case OpType::kInsert:
        ASSERT_EQ(svc.Put(op.key), RequestStatus::kOk) << op.key;
        oracle.insert(op.key);
        break;
      case OpType::kReadModifyWrite: {
        Request req;
        req.type = OpType::kReadModifyWrite;
        req.key = op.key;
        RequestStatus st = DoSync(&svc, std::move(req));
        ASSERT_EQ(st, oracle.count(op.key) != 0 ? RequestStatus::kOk
                                                : RequestStatus::kNotFound)
            << op.key;
        break;
      }
      case OpType::kScan: {
        std::vector<Key> scanned;
        ASSERT_EQ(svc.Scan(op.key, op.scan_len, &scanned), RequestStatus::kOk);
        std::vector<Key> expected;
        for (auto it = oracle.lower_bound(op.key);
             it != oracle.end() && expected.size() < op.scan_len; ++it) {
          expected.push_back(*it);
        }
        ASSERT_EQ(scanned, expected) << "scan from " << op.key;
        break;
      }
    }
  }
  ExpectFinalStateMatches(&svc, oracle);
}

TEST_P(ServiceDifferentialTest, ConcurrentClientsConvergeToOracleState) {
  // Four client threads hammer the service concurrently: disjoint insert
  // streams (so the final state is deterministic) interleaved with reads
  // of the bulk-loaded keys whose payloads are verified in flight.
  // Synthetic values are a pure function of the key, so interleaving
  // cannot produce a third state — the oracle is load ∪ all pools.
  std::vector<Key> all = MakeUniformKeys(8192, 43);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  KvService svc(GetParam(), TestConfig(2), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();

  const size_t kClients = 4;
  std::atomic<int> payload_mismatches{0};
  std::atomic<int> bad_statuses{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<uint8_t> got(svc.value_size());
      std::vector<uint8_t> want(svc.value_size());
      // Disjoint slice of the insert pool: client c takes i % kClients == c.
      for (size_t i = c; i < inserts.size(); i += kClients) {
        if (svc.Put(inserts[i]) != RequestStatus::kOk) {
          bad_statuses.fetch_add(1);
        }
        // Interleave a verified read of a loaded key.
        Key k = load[(i * 2654435761u) % load.size()];
        if (svc.Get(k, got.data()) != RequestStatus::kOk) {
          bad_statuses.fetch_add(1);
          continue;
        }
        ViperStore::FillSyntheticValue(k, want.data(), want.size());
        if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
          payload_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc.Drain();

  EXPECT_EQ(bad_statuses.load(), 0);
  EXPECT_EQ(payload_mismatches.load(), 0);
  std::set<Key> oracle(load.begin(), load.end());
  oracle.insert(inserts.begin(), inserts.end());
  ExpectFinalStateMatches(&svc, oracle);
}

TEST_P(ServiceDifferentialTest, ReadAfterAckSeesTheAckedValue) {
  // Each write is a single request acknowledged before the single read of
  // the same key is submitted; on an idle lane both run on this thread.
  std::vector<Key> all = MakeUniformKeys(4096, 59);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);
  KvService svc(GetParam(), TestConfig(4), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  PayloadOracle oracle(load, svc.value_size());

  Rng rng(61);
  std::vector<uint8_t> got(svc.value_size());
  for (uint64_t n = 0; n < 2000; ++n) {
    const Key key = rng.NextUnder(3) == 0
                        ? inserts[rng.NextUnder(inserts.size())]
                        : load[rng.NextUnder(load.size())];
    std::vector<uint8_t> value = oracle.NextValue(key, n);
    ASSERT_EQ(svc.Put(key, value.data()), RequestStatus::kOk) << key;
    oracle.Write(key, value);
    ASSERT_EQ(svc.Get(key, got.data()), RequestStatus::kOk) << key;
    ASSERT_EQ(got, value) << "read after acked write of " << key;
  }
  ExpectFinalStateMatches(&svc, oracle.Keys(), &oracle);
}

TEST_P(ServiceDifferentialTest, SameBatchWriteThenReadSeesTheWrite) {
  // One batch holds write -> read pairs (some keys written twice before
  // the read): the read executes after the writes ahead of it in the
  // batch and returns the later one.
  std::vector<Key> all = MakeUniformKeys(4096, 67);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);
  KvService svc(GetParam(), TestConfig(4), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  PayloadOracle oracle(load, svc.value_size());

  Rng rng(71);
  constexpr size_t kPairs = 24;
  uint64_t writes = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::vector<uint8_t>> values;
    std::vector<std::vector<uint8_t>> outs(kPairs);
    std::vector<std::vector<uint8_t>> expected(kPairs);
    values.reserve(2 * kPairs);
    std::vector<RequestStatus> statuses(3 * kPairs, RequestStatus::kShutdown);
    std::vector<Request> batch;
    for (size_t i = 0; i < kPairs; ++i) {
      const Key key = rng.NextUnder(2) == 0
                          ? inserts[rng.NextUnder(inserts.size())]
                          : load[rng.NextUnder(load.size())];
      const size_t times = 1 + rng.NextUnder(2);
      for (size_t t = 0; t < times; ++t) {
        values.push_back(oracle.NextValue(key, writes++));
        oracle.Write(key, values.back());
        Request w;
        w.type = OpType::kUpdate;
        w.key = key;
        w.value = values.back().data();
        w.done = [&statuses, slot = batch.size()](RequestStatus st) {
          statuses[slot] = st;
        };
        batch.push_back(std::move(w));
      }
      expected[i] = *oracle.Find(key);
      outs[i].assign(svc.value_size(), 0);
      Request r;
      r.key = key;
      r.out = outs[i].data();
      r.done = [&statuses, slot = batch.size()](RequestStatus st) {
        statuses[slot] = st;
      };
      batch.push_back(std::move(r));
    }
    const size_t submitted = batch.size();
    svc.SubmitBatch(std::move(batch));
    svc.Drain();
    for (size_t i = 0; i < submitted; ++i) {
      ASSERT_EQ(statuses[i], RequestStatus::kOk) << "request " << i;
    }
    for (size_t i = 0; i < kPairs; ++i) {
      ASSERT_EQ(outs[i], expected[i]) << "round " << round << " pair " << i;
    }
  }
  ExpectFinalStateMatches(&svc, oracle.Keys(), &oracle);
}

TEST_P(ServiceDifferentialTest, InterleavedSingleAndBatchedSubmitsMatchOracle) {
  // One client's seeded schedule, submitted without waiting: each op goes
  // either alone (caller-run when its lane is idle) or inside a batch of
  // 2..64 (always queued), so the two paths interleave on the same keys.
  // Per-key FIFO makes every read's expected payload the oracle's value
  // at its submission.
  std::vector<Key> all = MakeUniformKeys(4096, 73);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);
  KvService svc(GetParam(), TestConfig(4), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  PayloadOracle oracle(load, svc.value_size());

  WorkloadSpec spec;
  spec.read_pct = 45;
  spec.update_pct = 25;
  spec.insert_pct = 20;
  spec.rmw_pct = 10;
  spec.scan_pct = 0;
  // Zipfian keys: the same hot keys keep crossing between the two paths.
  spec.pick = KeyPick::kZipfian;
  std::vector<Op> ops = GenerateOps(spec, 6000, load, inserts, 4321);

  struct Slot {
    std::vector<uint8_t> value;     // write payload
    std::vector<uint8_t> out;       // read destination
    bool present = false;           // read: the oracle held the key
    std::vector<uint8_t> expected;  // read: its payload then
    std::atomic<int> fired{0};
    std::atomic<RequestStatus> status{RequestStatus::kShutdown};
  };
  std::vector<Slot> slots(ops.size());
  Rng rng(79);
  std::vector<Request> pending;
  size_t want = 1;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Slot& slot = slots[i];
    Request req;
    req.type = op.type;
    req.key = op.key;
    switch (op.type) {
      case OpType::kRead:
      case OpType::kReadModifyWrite: {
        const std::vector<uint8_t>* cur = oracle.Find(op.key);
        if (cur != nullptr) {
          slot.present = true;
          slot.expected = *cur;
        }
        slot.out.assign(svc.value_size(), 0);
        req.out = slot.out.data();
        if (op.type == OpType::kReadModifyWrite && cur != nullptr) {
          oracle.WriteSynthetic(op.key);
        }
        break;
      }
      default:
        slot.value = oracle.NextValue(op.key, i);
        oracle.Write(op.key, slot.value);
        req.value = slot.value.data();
        break;
    }
    req.done = [&slot](RequestStatus st) {
      slot.status.store(st);
      slot.fired.fetch_add(1);
    };
    pending.push_back(std::move(req));
    if (pending.size() < want) continue;
    svc.SubmitBatch(std::move(pending));
    pending.clear();
    want = rng.NextUnder(2) == 0 ? 1 : 2 + rng.NextUnder(63);
  }
  if (!pending.empty()) svc.SubmitBatch(std::move(pending));
  svc.Drain();

  for (size_t i = 0; i < ops.size(); ++i) {
    const Slot& slot = slots[i];
    ASSERT_EQ(slot.fired.load(), 1) << "op " << i;
    const bool reads = ops[i].type == OpType::kRead ||
                       ops[i].type == OpType::kReadModifyWrite;
    if (!reads) {
      ASSERT_EQ(slot.status.load(), RequestStatus::kOk) << "op " << i;
      continue;
    }
    if (!slot.present) {
      ASSERT_EQ(slot.status.load(), RequestStatus::kNotFound) << "op " << i;
      continue;
    }
    ASSERT_EQ(slot.status.load(), RequestStatus::kOk) << "op " << i;
    ASSERT_EQ(slot.out, slot.expected) << "op " << i << " key " << ops[i].key;
  }
  ExpectFinalStateMatches(&svc, oracle.Keys(), &oracle);
}

INSTANTIATE_TEST_SUITE_P(Indexes, ServiceDifferentialTest,
                         ::testing::Values("BTree", "ALEX", "PGM"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pieces::service

#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <utility>

#include "common/epoch.h"
#include "common/timer.h"
#include "index/registry.h"

namespace pieces::service {

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kNotFound:
      return "not_found";
    case RequestStatus::kStoreFull:
      return "store_full";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kShutdown:
      return "shutdown";
    case RequestStatus::kInvalid:
      return "invalid";
    case RequestStatus::kRetry:
      return "retry";
  }
  return "unknown";
}

RangePartition::RangePartition(size_t num_shards, std::vector<Key> sample)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {
  if (num_shards_ == 1) return;
  boundaries_.reserve(num_shards_ - 1);
  if (sample.size() < num_shards_) {
    // Not enough mass information: equal-width split of the domain.
    const Key step = std::numeric_limits<Key>::max() / num_shards_;
    for (size_t i = 1; i < num_shards_; ++i) {
      boundaries_.push_back(step * i);
    }
    return;
  }
  std::sort(sample.begin(), sample.end());
  Key prev = 0;
  for (size_t i = 1; i < num_shards_; ++i) {
    Key b = sample[i * sample.size() / num_shards_];
    // Boundaries must be strictly increasing; heavy duplicates in the
    // sample get nudged (the duplicated key's whole mass lands in one
    // shard regardless — equal keys cannot be split). The first boundary
    // is nudged too: a quantile of 0 would otherwise give shard 0 the
    // empty range [0, 0). `prev` starts at 0, so b == 0 becomes 1 and
    // key 0 stays in shard 0.
    if (b <= prev) {
      if (prev == std::numeric_limits<Key>::max()) break;
      b = prev + 1;
    }
    boundaries_.push_back(b);
    prev = b;
  }
  // Nudging can exhaust the domain near Key max, leaving fewer
  // boundaries than requested. The effective shard count must follow the
  // boundary list — otherwise trailing shards own empty ranges while the
  // service still spawns workers (and fans scans out) for them.
  num_shards_ = boundaries_.size() + 1;
}

RangePartition RangePartition::FromBoundaries(std::vector<Key> boundaries) {
  RangePartition p(1, {});
  p.boundaries_ = std::move(boundaries);
  p.num_shards_ = p.boundaries_.size() + 1;
  return p;
}

size_t RangePartition::ShardOf(Key key) const {
  // Shard s owns [boundaries_[s-1], boundaries_[s]); a boundary key
  // belongs to the shard on its right.
  return static_cast<size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
      boundaries_.begin());
}

Key RangePartition::LowerBound(size_t shard) const {
  if (shard == 0) return 0;
  if (shard > boundaries_.size()) return std::numeric_limits<Key>::max();
  return boundaries_[shard - 1];
}

KvService::KvService(const std::string& index_name,
                     const ServiceConfig& config,
                     const std::vector<Key>& bootstrap_sample)
    : index_name_(index_name), config_(config) {
  auto* snap = new Snapshot;
  snap->version = 1;
  snap->partition = RangePartition(config.num_shards, bootstrap_sample);
  const size_t n = snap->partition.num_shards();
  snap->shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    // Empty stores: BulkLoad seeds the replicas once they hold data.
    snap->shards.push_back(
        WrapStore(s, MakeStore(s, /*replica=*/false), /*seed=*/false));
  }
  next_shard_id_ = n;
  snapshot_.store(snap, std::memory_order_release);
}

KvService::~KvService() {
  Shutdown();
  // Retired snapshots sit in the global epoch manager's limbo (their
  // shard references drop whenever reclamation runs); the live one is
  // ours to free.
  delete snapshot_.load(std::memory_order_acquire);
  EpochManager::Global().ReclaimSome();
}

std::unique_ptr<StoreBackend> KvService::MakeStore(size_t id, bool replica) {
  auto index = MakeIndex(index_name_);
  if (index == nullptr) {
    std::fprintf(stderr, "KvService: unknown index '%s'\n",
                 index_name_.c_str());
    std::abort();
  }
  if (config_.backend == "disk") {
    // Each shard owns its own paged file inside the configured data
    // directory; record shape always follows the viper config so the two
    // backends stay interchangeable. The replica's file sits next to the
    // primary's, as a stand-in for a second machine's disk.
    DiskStore::Config disk = config_.disk;
    disk.value_size = config_.store.value_size;
    disk.path += "/shard_" + std::to_string(id) +
                 (replica ? ".replica.pages" : ".pages");
    auto ds = std::make_unique<DiskStore>(std::move(index), disk);
    if (!ds->ok()) {
      std::fprintf(stderr, "KvService: disk backend unavailable: %s\n",
                   ds->error().c_str());
      std::abort();
    }
    return ds;
  }
  return std::make_unique<ViperStore>(std::move(index), config_.store);
}

std::shared_ptr<Shard> KvService::WrapStore(
    size_t id, std::unique_ptr<StoreBackend> store, bool seed) {
  std::shared_ptr<replication::ReplicaSession> session;
  store->SetCommitTap(nullptr);  // a promoted store keeps its old tap
  if (config_.replication.enabled) {
    session = std::make_shared<replication::ReplicaSession>(
        MakeStore(id, /*replica=*/true), config_.replication);
    // The log (a shared_ptr) taps the primary's commit path; it outlives
    // the store no matter which side is torn down first.
    store->SetCommitTap(session->log());
  }
  auto shard = std::make_shared<Shard>(id, std::move(store),
                                       config_.queue_capacity,
                                       config_.maintenance,
                                       config_.writers_per_shard);
  if (session != nullptr) {
    shard->AttachReplication(
        session, config_.replication.ack ==
                     replication::ReplicationConfig::AckMode::kReplicated);
    // The store's image bypassed the log; seed before any write commits.
    if (seed) session->SeedFromPrimary(*shard->store());
    if (started_) session->Start();
  }
  if (started_) shard->Start();
  return shard;
}

bool KvService::BulkLoad(const std::vector<Key>& sorted_keys) {
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  const size_t n = snap->shards.size();
  // Shards load in parallel, joined like CrashAndRecover: each load
  // touches only its own store, index and replica. The calling thread
  // loads shard 0, so a one-shard service stays on it (and its allocator
  // arena). A throwing load (a simulated power cut) is forwarded to the
  // caller after the join.
  struct Outcome {
    bool ok = false;
    std::exception_ptr error;
  };
  std::vector<Outcome> outcomes(n);
  auto load = [&](size_t s) {
    auto begin = std::lower_bound(sorted_keys.begin(), sorted_keys.end(),
                                  snap->partition.LowerBound(s));
    auto end = s + 1 < n ? std::lower_bound(begin, sorted_keys.end(),
                                            snap->partition.LowerBound(s + 1))
                         : sorted_keys.end();
    Shard& shard = *snap->shards[s];
    try {
      if (!shard.store()->BulkLoad(std::vector<Key>(begin, end))) return;
      // Bulk loads bypass the commit log (see CommitTap); replicas seed
      // directly from the quiesced primary image instead.
      outcomes[s].ok = shard.replication() == nullptr ||
                       shard.replication()->SeedFromPrimary(*shard.store());
    } catch (...) {
      outcomes[s].error = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t s = 1; s < n; ++s) workers.emplace_back(load, s);
  load(0);
  for (std::thread& w : workers) w.join();
  bool ok = true;
  for (const Outcome& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
    ok = ok && out.ok;
  }
  return ok;
}

void KvService::Start() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  // Each shipper before its shard's workers: a semi-sync write acked by a
  // worker needs a live session from the very first request.
  for (auto& shard : snap->shards) {
    if (shard->replication() != nullptr) shard->replication()->Start();
    shard->Start();
  }
  started_ = true;
  if (config_.rebalance.enabled && !rebalancer_.joinable()) {
    stop_rebalancer_.store(false, std::memory_order_relaxed);
    rebalancer_ = std::thread(&KvService::RebalanceLoop, this);
  }
}

void KvService::CompleteInline(Request& req, RequestStatus status) {
  // Rejected/shutdown/retried requests never record latency — only
  // executed requests may touch the single-writer recorder.
  if (req.done) req.done(status);
}

void KvService::Bounce(std::vector<Request>& batch,
                       Shard::EnqueueResult result) {
  const RequestStatus status =
      result == Shard::EnqueueResult::kRejected   ? RequestStatus::kRejected
      : result == Shard::EnqueueResult::kShutdown ? RequestStatus::kShutdown
                                                  : RequestStatus::kRetry;
  for (Request& req : batch) CompleteInline(req, status);
}

bool KvService::WaitForNewerSnapshot(uint64_t version) {
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  snapshot_changed_.wait(lock, [&] {
    return shutdown_.load(std::memory_order_relaxed) ||
           snapshot_.load(std::memory_order_acquire)->version > version;
  });
  return !shutdown_.load(std::memory_order_relaxed);
}

void KvService::DispatchToShard(const std::shared_ptr<Shard>& shard,
                                uint64_t version, std::vector<Request>&& batch,
                                int budget, bool caller_may_run) {
  Shard::EnqueueResult result =
      shard->Enqueue(std::move(batch), config_.admission, caller_may_run);
  if (result == Shard::EnqueueResult::kAccepted) return;
  // Enqueue left the batch in place. A retired shard (live split, merge
  // or failover) means: wait for the successor snapshot — the structural
  // op publishes it right after the migration — and re-route. The budget
  // bounds the chase across back-to-back structural ops.
  if (result == Shard::EnqueueResult::kRetired && budget > 0) {
    if (WaitForNewerSnapshot(version)) {
      Route(std::move(batch), budget - 1, caller_may_run);
      return;
    }
    result = Shard::EnqueueResult::kShutdown;
  }
  Bounce(batch, result);
}

bool KvService::TryReplicaRead(replication::ReplicaSession& session,
                               Request& req) {
  // Discarded payloads still need a destination buffer; the scratch is
  // per-submitting-thread, mirroring the shard's lane-local scratch.
  thread_local std::vector<uint8_t> scratch;
  uint8_t* out = req.out;
  if (out == nullptr) {
    if (scratch.size() < config_.store.value_size) {
      scratch.resize(config_.store.value_size);
    }
    out = scratch.data();
  }
  bool found = false;
  if (!session.TryRead(req.key, out, &found)) return false;
  // No latency recording: this completion runs on the submitting thread
  // outside any lane, and the recorder belongs to the lane's holder.
  if (req.done) {
    req.done(found ? RequestStatus::kOk : RequestStatus::kNotFound);
  }
  return true;
}

void KvService::RouteBatch(std::vector<Request>&& batch, int budget,
                           bool caller_may_run) {
  if (batch.empty()) return;
  uint64_t version;
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<std::vector<Request>> buckets;
  const bool replica_reads =
      config_.replication.enabled &&
      config_.replication.reads != replication::ReplicationConfig::ReadPolicy::kOff;
  {
    // The guard pins the snapshot only while routing; the enqueues below
    // may block on admission control, so they run on copied shard
    // references instead of the snapshot itself.
    EpochGuard guard;
    Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    version = snap->version;
    shards = snap->shards;
    buckets.resize(shards.size());
    for (Request& req : batch) {
      buckets[snap->partition.ShardOf(req.key)].push_back(std::move(req));
    }
  }
  if (replica_reads) {
    for (size_t s = 0; s < buckets.size(); ++s) {
      replication::ReplicaSession* replica = shards[s]->replication().get();
      if (replica == nullptr) continue;
      // Offload reads the replica can serve within its watermark; the
      // rest (all writes, and reads the replica bounced) fall through to
      // the primary's queue in their original order.
      std::vector<Request>& bucket = buckets[s];
      size_t kept = 0;
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].type == OpType::kRead &&
            TryReplicaRead(*replica, bucket[i])) {
          continue;
        }
        if (kept != i) bucket[kept] = std::move(bucket[i]);
        ++kept;
      }
      bucket.resize(kept);
    }
  }
  // Only the last chunk dispatched may run on this thread (shard.h,
  // "Hand-off"), and only when `caller_may_run`: every other chunk is
  // queued by then, so the shards still work in parallel.
  size_t last = buckets.size();
  while (last > 0 && buckets[last - 1].empty()) --last;
  const size_t max_batch = std::max<size_t>(1, config_.max_batch);
  for (size_t s = 0; s < last; ++s) {
    std::vector<Request>& bucket = buckets[s];
    if (bucket.empty()) continue;
    const bool last_bucket = s + 1 == last;
    if (bucket.size() <= max_batch) {
      DispatchToShard(shards[s], version, std::move(bucket), budget,
                      caller_may_run && last_bucket);
      continue;
    }
    for (size_t i = 0; i < bucket.size(); i += max_batch) {
      const size_t end = std::min(bucket.size(), i + max_batch);
      std::vector<Request> chunk(std::make_move_iterator(bucket.begin() + i),
                                 std::make_move_iterator(bucket.begin() + end));
      DispatchToShard(shards[s], version, std::move(chunk), budget,
                      caller_may_run && last_bucket && end == bucket.size());
    }
  }
}

void KvService::Submit(Request req) {
  if (req.type == OpType::kScan) {
    FanOutScan(std::move(req), kRerouteBudget, /*caller_may_run=*/true);
    return;
  }
  std::vector<Request> batch;
  batch.push_back(std::move(req));
  RouteBatch(std::move(batch), kRerouteBudget, /*caller_may_run=*/true);
}

void KvService::SubmitBatch(std::vector<Request> batch) {
  Route(std::move(batch), kRerouteBudget, /*caller_may_run=*/true);
}

void KvService::Route(std::vector<Request>&& batch, int budget,
                      bool caller_may_run) {
  std::vector<Request> points;
  points.reserve(batch.size());
  // A scan may run its last sub-scan on this thread only when nothing is
  // dispatched after it: the final scan of a batch without point requests.
  size_t scans_left = static_cast<size_t>(
      std::count_if(batch.begin(), batch.end(), [](const Request& req) {
        return req.type == OpType::kScan;
      }));
  const bool scans_last = caller_may_run && scans_left == batch.size();
  for (Request& req : batch) {
    if (req.type == OpType::kScan) {
      --scans_left;
      FanOutScan(std::move(req), budget, scans_last && scans_left == 0);
    } else {
      points.push_back(std::move(req));
    }
  }
  RouteBatch(std::move(points), budget, caller_may_run);
}

// Shared join state for a scan fanned out across shards [first, last].
// parts[i] is written by whichever thread executes the sub-scan (a shard
// worker or the submitting thread) before its done callback runs; the
// final decrement (acq_rel) synchronizes all parts into the finishing
// thread, which merges and completes the original.
struct KvService::ScanJoin {
  Request original;
  std::vector<std::vector<Key>> parts;
  std::atomic<size_t> remaining{0};
  std::atomic<uint8_t> worst{0};  // max RequestStatus over sub-scans

  void Finish() {
    Request& orig = original;
    if (orig.scan_out != nullptr) {
      // Range partitioning: shard order is key order, so the merge is a
      // concatenation truncated to the requested count.
      size_t appended = 0;
      const size_t want = orig.scan_len;
      for (const std::vector<Key>& part : parts) {
        for (Key k : part) {
          if (appended == want) break;
          orig.scan_out->push_back(k);
          ++appended;
        }
      }
    }
    if (orig.latency != nullptr && orig.start_nanos != 0) {
      orig.latency->Record(NowNanos() - orig.start_nanos);
    }
    if (orig.done) {
      orig.done(static_cast<RequestStatus>(worst.load(
          std::memory_order_relaxed)));
    }
  }
};

void KvService::FanOutScan(Request req, int budget, bool caller_may_run) {
  uint64_t version;
  size_t first;
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<Key> starts;
  {
    EpochGuard guard;
    Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    version = snap->version;
    first = snap->partition.ShardOf(req.key);
    shards.assign(snap->shards.begin() + first, snap->shards.end());
    starts.reserve(shards.size());
    starts.push_back(req.key);
    for (size_t i = first + 1; i < snap->shards.size(); ++i) {
      starts.push_back(snap->partition.LowerBound(i));
    }
  }
  const size_t n = shards.size();
  if (n == 1) {
    // Single-shard scan: a plain dispatch, re-routed (as a scan) if the
    // shard retires under it — still on the submitting thread.
    std::vector<Request> batch;
    batch.push_back(std::move(req));
    DispatchToShard(shards[0], version, std::move(batch), budget,
                    caller_may_run);
    return;
  }
  auto join = std::make_shared<ScanJoin>();
  join->original = std::move(req);
  join->parts.resize(n);
  join->remaining.store(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    Request sub;
    sub.type = OpType::kScan;
    sub.key = starts[i];
    // Conservative: any shard may end up serving the whole count; the
    // merge truncates.
    sub.scan_len = join->original.scan_len;
    sub.scan_out = &join->parts[i];
    sub.done = [join](RequestStatus st) {
      if (st != RequestStatus::kOk) {
        uint8_t s = static_cast<uint8_t>(st);
        uint8_t seen = join->worst.load(std::memory_order_relaxed);
        while (s > seen && !join->worst.compare_exchange_weak(
                               seen, s, std::memory_order_relaxed)) {
        }
      }
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        join->Finish();
      }
    };
    std::vector<Request> batch;
    batch.push_back(std::move(sub));
    // Every sub-scan but the last queues, so the shards scan in
    // parallel; the last may then run on this thread.
    Shard::EnqueueResult result = shards[i]->Enqueue(
        std::move(batch), config_.admission, caller_may_run && i + 1 == n);
    if (result == Shard::EnqueueResult::kAccepted) continue;
    // A bounced sub-scan marks the whole scan kRetry (worst-status wins
    // over per-shard errors): the partition moved mid-fan-out, so the
    // merged result could miss a key range. The caller re-submits — the
    // synchronous Scan() wrapper does so automatically.
    Bounce(batch, result);
  }
}

namespace {

// Stack-allocated completion cell for the synchronous convenience API.
struct SyncCell {
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  RequestStatus status = RequestStatus::kOk;

  void Set(RequestStatus st) {
    // Notify while holding the lock: the cell lives on the waiter's
    // stack, and the waiter may destroy it the moment it can reacquire
    // the mutex — notifying after unlock would race with that teardown.
    std::lock_guard<std::mutex> lock(m);
    status = st;
    fired = true;
    cv.notify_one();
  }
  RequestStatus Wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return fired; });
    return status;
  }
};

}  // namespace

RequestStatus KvService::Get(Key key, uint8_t* out) {
  SyncCell cell;
  Request req;
  req.type = OpType::kRead;
  req.key = key;
  req.out = out;
  req.done = [&cell](RequestStatus st) { cell.Set(st); };
  Submit(std::move(req));
  return cell.Wait();
}

RequestStatus KvService::Put(Key key, const uint8_t* value) {
  SyncCell cell;
  Request req;
  req.type = OpType::kInsert;
  req.key = key;
  req.value = value;
  req.done = [&cell](RequestStatus st) { cell.Set(st); };
  Submit(std::move(req));
  return cell.Wait();
}

RequestStatus KvService::Scan(Key from, size_t count, std::vector<Key>* out) {
  // Request carries the scan length as uint32_t; silently clamping an
  // oversized count would return fewer keys than asked with status kOk.
  if (count > std::numeric_limits<uint32_t>::max()) {
    return RequestStatus::kInvalid;
  }
  const size_t base = out != nullptr ? out->size() : 0;
  for (int attempt = 0;; ++attempt) {
    const uint64_t version = partition_version();
    SyncCell cell;
    Request req;
    req.type = OpType::kScan;
    req.key = from;
    req.scan_len = static_cast<uint32_t>(count);
    req.scan_out = out;
    req.done = [&cell](RequestStatus st) { cell.Set(st); };
    Submit(std::move(req));
    RequestStatus st = cell.Wait();
    if (st != RequestStatus::kRetry || attempt >= kRerouteBudget) return st;
    // A split raced the fan-out: drop the partial merge, wait for the
    // successor snapshot, retry the whole scan.
    if (out != nullptr) out->resize(base);
    if (!WaitForNewerSnapshot(version)) return RequestStatus::kShutdown;
  }
}

void KvService::Drain() {
  // A split may swap the shard set mid-drain; done when one full pass
  // completes with the snapshot unchanged.
  for (;;) {
    const Snapshot snap = Current();
    for (auto& shard : snap.shards) shard->Drain();
    if (partition_version() == snap.version) return;
  }
}

void KvService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    shutdown_.store(true, std::memory_order_relaxed);
    snapshot_changed_.notify_all();  // kRetired waiters exit with kShutdown
  }
  stop_rebalancer_.store(true, std::memory_order_relaxed);
  if (rebalancer_.joinable()) rebalancer_.join();
  // admin_mu_ waits out an in-flight split/merge; no new one can start
  // (structural ops check shutdown_ under admin_mu_).
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  // Each shard's workers before its session (they may be awaiting
  // replication acks, which the live shipper keeps draining).
  for (auto& shard : snap->shards) {
    shard->Stop();
    if (shard->replication() != nullptr) shard->replication()->Stop();
  }
}

KvService::Snapshot KvService::Current() const {
  EpochGuard guard;
  return *snapshot_.load(std::memory_order_acquire);
}

void KvService::PublishSnapshot(Snapshot* next) {
  Snapshot* old = snapshot_.load(std::memory_order_relaxed);
  next->version = old->version + 1;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.store(next, std::memory_order_release);
  }
  snapshot_changed_.notify_all();
  // Routers that loaded `old` under their guard finish against it; its
  // shard references drop when the epoch system reclaims it.
  EpochManager::Global().Retire<Snapshot>(old);
}

std::shared_ptr<Shard> KvService::BuildShard(
    const std::vector<Key>& keys,
    const std::vector<std::shared_ptr<Shard>>& sources) {
  const size_t id = next_shard_id_++;
  std::unique_ptr<StoreBackend> store = MakeStore(id, /*replica=*/false);
  auto fill = [&](Key key, uint8_t* buf) {
    // Sources are quiesced (stopped) and own disjoint ranges; preserve
    // the stored value rather than re-synthesizing it.
    for (const auto& src : sources) {
      if (src->store()->Get(key, buf)) return;
    }
    FillSyntheticRecordValue(key, buf, config_.store.value_size);
  };
  if (!store->BulkLoad(keys, fill)) return nullptr;
  return WrapStore(id, std::move(store), /*seed=*/true);
}

std::optional<uint64_t> KvService::ReplaceShards(size_t first, size_t count,
                                                 const BuildFn& build) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (shutdown_.load(std::memory_order_relaxed)) return std::nullopt;
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  if (count == 0 || first + count > snap->shards.size()) return std::nullopt;
  const auto begin = static_cast<std::ptrdiff_t>(first);
  const auto end = begin + static_cast<std::ptrdiff_t>(count);
  const std::vector<Key>& bounds = snap->partition.boundaries();
  ShardRange retired;
  retired.shards.assign(snap->shards.begin() + begin,
                        snap->shards.begin() + end);
  retired.boundaries.assign(bounds.begin() + begin, bounds.begin() + end - 1);

  // The outage window: from the first bounced request to the successor
  // snapshot going live. Quiesce: bounce new work (kRetired), finish
  // accepted work, join the workers. Retire is irreversible, so the range
  // must be replaced from here on.
  const uint64_t start = NowNanos();
  for (auto& shard : retired.shards) shard->BeginRetire();
  for (auto& shard : retired.shards) shard->Drain();
  for (auto& shard : retired.shards) shard->Stop();
  // The shippers still run while `build` reads the quiesced stores, so a
  // failover can let its replica catch up.
  ShardRange next = build(retired);
  // No worker is left to await an ack; the retired sessions would
  // otherwise idle in epoch limbo until reclamation. (A promoted session
  // is already stopped; Stop is idempotent.)
  for (auto& shard : retired.shards) {
    if (shard->replication() != nullptr) shard->replication()->Stop();
  }

  // Splice: untouched prefix + successors + untouched suffix.
  auto* successor = new Snapshot;
  std::vector<std::shared_ptr<Shard>>& shards = successor->shards;
  shards.assign(snap->shards.begin(), snap->shards.begin() + begin);
  shards.insert(shards.end(), next.shards.begin(), next.shards.end());
  shards.insert(shards.end(), snap->shards.begin() + end, snap->shards.end());
  std::vector<Key> nb(bounds.begin(), bounds.begin() + begin);
  nb.insert(nb.end(), next.boundaries.begin(), next.boundaries.end());
  nb.insert(nb.end(), bounds.begin() + end - 1, bounds.end());
  successor->partition = RangePartition::FromBoundaries(std::move(nb));
  PublishSnapshot(successor);
  return NowNanos() - start;
}

bool KvService::SplitShard(size_t shard_idx) {
  const Snapshot snap = Current();
  // Too few keys to cut: refuse before anything retires.
  if (shard_idx < snap.shards.size() &&
      snap.shards[shard_idx]->store()->size() < 2) {
    return false;
  }
  bool split = false;
  ReplaceShards(shard_idx, 1, [&](const ShardRange& retired) -> ShardRange {
    StoreBackend* store = retired.shards[0]->store();
    std::vector<Key> keys;
    store->Scan(0, store->size(), &keys);
    // Cut at the key median; an all-duplicates left half slides the cut
    // right so both halves stay non-empty. The split key is an owned key,
    // so LowerBound(shard_idx) <= keys.front() < split <
    // LowerBound(shard_idx + 1) and the boundary list stays strictly
    // increasing.
    size_t cut = keys.size() / 2;
    if (cut > 0 && keys[cut] == keys.front()) {
      cut = static_cast<size_t>(
          std::upper_bound(keys.begin(), keys.end(), keys.front()) -
          keys.begin());
    }
    if (cut == 0 || cut >= keys.size()) {
      // Every key equal: unsplittable. Rebuild as a single replacement
      // shard so the retired one still leaves service.
      return {{BuildShard(keys, retired.shards)}, {}};
    }
    split = true;
    const std::vector<Key> left(keys.begin(), keys.begin() + cut);
    const std::vector<Key> right(keys.begin() + cut, keys.end());
    return {{BuildShard(left, retired.shards),
             BuildShard(right, retired.shards)},
            {keys[cut]}};
  });
  if (split) splits_.fetch_add(1, std::memory_order_relaxed);
  return split;
}

bool KvService::MergeShards(size_t left_idx) {
  bool merged = false;
  ReplaceShards(left_idx, 2, [&](const ShardRange& retired) -> ShardRange {
    // Adjacent ranges scanned in shard order: already globally sorted.
    StoreBackend* a = retired.shards[0]->store();
    StoreBackend* b = retired.shards[1]->store();
    std::vector<Key> keys;
    a->Scan(0, a->size(), &keys);
    const size_t a_count = keys.size();
    b->Scan(0, b->size(), &keys);
    std::shared_ptr<Shard> shard = BuildShard(keys, retired.shards);
    if (shard != nullptr) {
      merged = true;
      return {{std::move(shard)}, {}};
    }
    // Combined records overflow one store: rebuild both halves in place
    // (compacting them) and keep the boundary.
    const auto cut = keys.begin() + static_cast<std::ptrdiff_t>(a_count);
    const std::vector<Key> ka(keys.begin(), cut);
    const std::vector<Key> kb(cut, keys.end());
    return {{BuildShard(ka, retired.shards), BuildShard(kb, retired.shards)},
            retired.boundaries};
  });
  if (merged) merges_.fetch_add(1, std::memory_order_relaxed);
  return merged;
}

FailoverReport KvService::FailOverShard(size_t shard_idx, bool graceful) {
  FailoverReport report;
  if (!config_.replication.enabled) return report;
  std::optional<uint64_t> outage = ReplaceShards(
      shard_idx, 1, [&](const ShardRange& retired) -> ShardRange {
        Shard& old = *retired.shards[0];
        replication::ReplicaSession& session = *old.replication();
        // The workers are stopped, so every acked write is in the log and
        // the shipper is still delivering it.
        if (graceful) session.WaitCaughtUp(0);
        // Promotion = crash recovery on the replica's store: stop the
        // session, validate the commit headers, rebuild the index.
        // Everything the shipper never delivered is gone — count it.
        // (Under kReplicated ack mode none of those writes were acked to
        // any client.)
        std::unique_ptr<StoreBackend> promoted =
            session.Promote(&report.rebuild_ns);
        replication::ReplicaSessionStats st = session.Stats();
        report.lost_records =
            st.log_tail > st.applied ? st.log_tail - st.applied : 0;
        // The failed primary's medium dies with it.
        old.store()->Crash();
        return {{WrapStore(next_shard_id_++, std::move(promoted),
                           /*seed=*/true)},
                {}};
      });
  if (!outage.has_value()) return report;
  report.outage_ns = *outage;
  report.ok = true;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  return report;
}

bool KvService::WaitReplicasCaughtUp() {
  bool ok = true;
  for (auto& shard : Current().shards) {
    if (shard->replication() == nullptr) return false;
    if (!shard->replication()->WaitCaughtUp(0)) ok = false;
  }
  return ok;
}

std::shared_ptr<replication::ReplicaSession> KvService::replica_session(
    size_t shard) const {
  EpochGuard guard;
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  return shard < snap->shards.size() ? snap->shards[shard]->replication()
                                     : nullptr;
}

void KvService::RebalanceLoop() {
  const RebalanceConfig& rb = config_.rebalance;
  const double split_depth =
      rb.split_queue_depth != 0
          ? static_cast<double>(rb.split_queue_depth)
          : static_cast<double>(config_.queue_capacity) * 0.75;
  uint64_t last_version = 0;
  std::vector<double> ewma;
  uint64_t cooldown_until = 0;
  while (!stop_rebalancer_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rb.poll_interval_ms));
    const Snapshot snap = Current();
    const std::vector<std::shared_ptr<Shard>>& shards = snap.shards;
    if (snap.version != last_version) {
      // Shard positions shifted; stale pressure estimates would split
      // the wrong shard.
      ewma.assign(shards.size(), 0.0);
      last_version = snap.version;
    }
    size_t hottest = 0;
    double hot = -1.0;
    for (size_t i = 0; i < shards.size(); ++i) {
      const double depth = static_cast<double>(shards[i]->QueueDepth());
      ewma[i] += rb.ewma_alpha * (depth - ewma[i]);
      if (ewma[i] > hot) {
        hot = ewma[i];
        hottest = i;
      }
    }
    const uint64_t now = NowNanos();
    if (now < cooldown_until) continue;
    if (hot >= split_depth && shards.size() < rb.max_shards &&
        shards[hottest]->store()->size() >= rb.min_split_keys) {
      if (SplitShard(hottest)) {
        cooldown_until = NowNanos() + rb.cooldown_ms * 1000000;
      }
      continue;
    }
    if (rb.merge_max_keys == 0 || shards.size() < 2) continue;
    const double idle = split_depth * 0.25;
    for (size_t i = 0; i + 1 < shards.size(); ++i) {
      if (ewma[i] < idle && ewma[i + 1] < idle &&
          shards[i]->store()->size() + shards[i + 1]->store()->size() <=
              rb.merge_max_keys) {
        if (MergeShards(i)) {
          cooldown_until = NowNanos() + rb.cooldown_ms * 1000000;
        }
        break;
      }
    }
  }
}

std::vector<uint64_t> KvService::CrashAndRecover() {
  // Serialized with splits: a structural op mid-crash would migrate from
  // a store in its crashed (inaccessible) state.
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  std::vector<uint64_t> rebuild_ns(snap->shards.size(), 0);
  std::vector<std::thread> workers;
  workers.reserve(snap->shards.size());
  for (size_t s = 0; s < snap->shards.size(); ++s) {
    workers.emplace_back([snap, s, &rebuild_ns] {
      rebuild_ns[s] = snap->shards[s]->CrashAndRecover();
    });
  }
  for (std::thread& w : workers) w.join();
  return rebuild_ns;
}

size_t KvService::num_shards() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->shards.size();
}

size_t KvService::ShardOf(Key key) const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partition.ShardOf(key);
}

RangePartition KvService::partition() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partition;
}

uint64_t KvService::partition_version() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->version;
}

size_t KvService::TotalKeys() const {
  size_t n = 0;
  for (const auto& shard : Current().shards) n += shard->store()->size();
  return n;
}

ServiceStats KvService::Stats() const {
  const Snapshot snap = Current();
  ServiceStats stats;
  stats.shards.reserve(snap.shards.size());
  for (const auto& shard : snap.shards) {
    ShardStats s = shard->Stats();
    if (shard->replication() != nullptr) {
      replication::ReplicaSessionStats r = shard->replication()->Stats();
      s.repl_log_tail = r.log_tail;
      s.repl_applied = r.applied;
      s.repl_lag = r.lag;
      s.repl_batches = r.batches_shipped;
      s.replica_reads = r.replica_reads;
      s.replica_waits = r.replica_waits;
      s.replica_bounces = r.replica_bounces;
      s.repl_ack_failures = r.ack_failures;
      s.replica_dead = r.dead;
    }
    stats.shards.push_back(s);
  }
  stats.splits = splits_.load(std::memory_order_relaxed);
  stats.merges = merges_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.partition_version = snap.version;
  return stats;
}

}  // namespace pieces::service

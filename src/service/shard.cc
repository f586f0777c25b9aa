#include "service/shard.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/timer.h"

namespace pieces::service {

namespace {

// splitmix64 finalizer: decorrelates the lane choice from the key's range
// position, so a hot contiguous key range still spreads across lanes.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The request types Execute persists, and so awaits the replica for
// under sync_ack_.
bool IsWrite(OpType type) {
  return type != OpType::kRead && type != OpType::kScan;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Worker threads started and not yet joined, across every shard in the
// process.
std::atomic<size_t> g_workers{0};

// CPUs the affinity mask lets this process run on; not the host's count,
// which ignores the mask. 1 (never spin) when the mask cannot be read.
size_t UsableCpus() {
  static const size_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return size_t{1};
    return static_cast<size_t>(CPU_COUNT(&set));
  }();
  return cpus;
}

}  // namespace

Shard::Shard(size_t id, std::unique_ptr<StoreBackend> store,
             size_t queue_capacity, MaintenanceConfig maintenance,
             size_t writers)
    : id_(id),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      maintenance_(maintenance),
      store_(std::move(store)) {
  // Multiple writers require an index that tolerates them; everything
  // else keeps the exclusive single-writer contract.
  size_t lanes = store_->index().SupportsConcurrentWrites()
                     ? std::max<size_t>(1, writers)
                     : 1;
  lanes_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->scratch.value.resize(store_->value_size());
  }
  if (maintenance_.enabled) {
    MaintenanceHook* hook = store_->mutable_index()->maintenance();
    if (hook != nullptr) {
      // Maintenance mode stays on for the shard's lifetime (even across
      // crash recovery): the index defers inline retrains so the
      // maintainer can take them off-thread.
      hook->SetMaintenanceMode(true);
      maintainer_ = std::make_unique<Maintainer>(hook, maintenance_);
    }
  }
}

Shard::~Shard() { Stop(); }

void Shard::AttachReplication(
    std::shared_ptr<replication::ReplicaSession> session, bool sync_ack) {
  replication_ = std::move(session);
  sync_ack_ = sync_ack && replication_ != nullptr;
}

size_t Shard::LaneOf(Key key) const {
  return lanes_.size() == 1
             ? 0
             : static_cast<size_t>(MixKey(key) % lanes_.size());
}

bool Shard::SpinsWhenIdle() { return g_workers.load() < UsableCpus(); }

void Shard::PublishReady(Lane& lane) {
  lane.ready.store(!lane.queue.empty() && !lane.executing);
}

void Shard::SpinForWork(const Lane& lane) {
  // The flag only ends the spin early: the worker then takes mu_ and
  // re-checks the real predicate, so a stale read costs at most one park.
  if (lane.ready.load() || !SpinsWhenIdle()) return;
  // The batch just executed may have woken a client (its `done`) onto
  // this CPU; let it run before the spin takes the core for a window.
  std::this_thread::yield();
  const uint64_t deadline = NowNanos() + kSpinWindowNs;
  // The clock is read once per 64 polls.
  for (uint32_t i = 1; !lane.ready.load(); ++i) {
    CpuRelax();
    if (i % 64 == 0 && NowNanos() >= deadline) break;
  }
}

void Shard::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(lanes_.size());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    workers_.emplace_back(&Shard::WorkerLoop, this, i);
  }
  g_workers.fetch_add(workers_.size());
  if (maintainer_ != nullptr) maintainer_->Start();
}

Shard::EnqueueResult Shard::Enqueue(std::vector<Request>&& batch,
                                    AdmissionPolicy policy,
                                    bool caller_may_run) {
  if (batch.empty()) return EnqueueResult::kAccepted;
  std::unique_lock<std::mutex> lock(mu_);
  auto fits = [&] {
    // Oversized batches are admitted into an otherwise-empty queue so a
    // batch larger than the capacity cannot block forever.
    return queued_requests_ + batch.size() <= queue_capacity_ ||
           queued_requests_ == 0;
  };
  if (retired_) return EnqueueResult::kRetired;
  if (stopping_) return EnqueueResult::kShutdown;
  if (!fits()) {
    if (policy == AdmissionPolicy::kReject) {
      rejected_.fetch_add(batch.size(), std::memory_order_relaxed);
      return EnqueueResult::kRejected;
    }
    has_space_.wait(lock, [&] { return fits() || stopping_ || retired_; });
    if (retired_) return EnqueueResult::kRetired;
    if (stopping_) return EnqueueResult::kShutdown;
  }
  // Caller-runs (shard.h, "Hand-off"): a single request on an idle lane
  // executes here instead of crossing to the worker. A semi-sync write
  // queues: its ack wait would stall the client's other submissions.
  if (caller_may_run && batch.size() == 1 && started_ &&
      !(sync_ack_ && IsWrite(batch[0].type))) {
    Lane& lane = *lanes_[LaneOf(batch[0].key)];
    if (lane.queue.empty() && !lane.executing) {
      RunOnCaller(lane, batch[0], lock);
      return EnqueueResult::kAccepted;
    }
  }
  queued_requests_ += batch.size();
  max_queue_ = std::max<uint64_t>(max_queue_, queued_requests_);
  if (lanes_.size() == 1) {
    lanes_[0]->queue.push_back(std::move(batch));
    PublishReady(*lanes_[0]);
    lanes_[0]->has_work.notify_one();
    return EnqueueResult::kAccepted;
  }
  // Split by key hash under the lock: same key -> same lane, and a later
  // Enqueue of that key lands behind this one, so per-key FIFO holds.
  std::vector<std::vector<Request>> per_lane(lanes_.size());
  for (Request& req : batch) {
    per_lane[LaneOf(req.key)].push_back(std::move(req));
  }
  for (size_t i = 0; i < per_lane.size(); ++i) {
    if (per_lane[i].empty()) continue;
    lanes_[i]->queue.push_back(std::move(per_lane[i]));
    PublishReady(*lanes_[i]);
    lanes_[i]->has_work.notify_one();
  }
  return EnqueueResult::kAccepted;
}

void Shard::RunOnCaller(Lane& lane, Request& req,
                        std::unique_lock<std::mutex>& lock) {
  // Claiming the lane keeps its worker (and any other caller) out until
  // the release below; in_flight_ makes Drain, retire and Stop wait for
  // the request like any popped batch.
  lane.executing = true;
  ++in_flight_;
  lock.unlock();
  Execute(req, lane.scratch);
  batches_.fetch_add(1, std::memory_order_relaxed);
  ops_.fetch_add(1, std::memory_order_relaxed);
  lock.lock();
  ++caller_runs_;
  lane.executing = false;
  --in_flight_;
  if (!lane.queue.empty()) {
    // Batches that queued behind this request: hand the lane back.
    PublishReady(lane);
    lane.has_work.notify_one();
  }
  if (in_flight_ == 0) idle_.notify_all();
}

void Shard::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return queued_requests_ == 0 && in_flight_ == 0; });
}

void Shard::Stop() {
  // Quiesce the maintainer before the workers: once Stop returns, nothing
  // may touch the store (CrashAndRecover drops the PMem right after).
  if (maintainer_ != nullptr) maintainer_->Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& lane : lanes_) lane->has_work.notify_all();
    has_space_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (!w.joinable()) continue;
    w.join();
    g_workers.fetch_sub(1);
  }
  workers_.clear();
  // A request running on its submitting thread may outlive the workers;
  // once Stop returns nothing touches the store.
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return in_flight_ == 0; });
}

void Shard::BeginRetire() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_ = true;
  // Producers blocked in kBlock admission must not wait on a shard that
  // will never free space for them — wake them into kRetired.
  has_space_.notify_all();
}

bool Shard::retired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_;
}

size_t Shard::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_requests_ + in_flight_;
}

uint64_t Shard::CrashAndRecover() {
  bool was_started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
  }
  // Quiesce first: every accepted request completes, and a completed
  // write's persists are done by the time it acks — so the crash below
  // drops only bytes no client was ever promised. Submissions racing the
  // outage observe stopping_ and complete with kShutdown.
  Stop();
  store_->Crash();
  uint64_t ns = store_->Recover();
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    started_ = false;
  }
  if (was_started) Start();
  return ns;
}

ShardStats Shard::Stats() const {
  ShardStats s;
  s.ops = ops_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.keys = store_->size();
  s.writers = lanes_.size();
  if (maintainer_ != nullptr) {
    MaintainerStats m = maintainer_->Stats();
    s.bg_scans = m.scans;
    s.bg_prepared = m.prepared;
    s.bg_published = m.published;
    s.bg_aborted = m.aborted;
    s.bg_throttled = m.throttled;
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.max_queue = max_queue_;
  s.caller_runs = caller_runs_;
  return s;
}

void Shard::WorkerLoop(size_t lane_idx) {
  Lane& lane = *lanes_[lane_idx];
  for (;;) {
    SpinForWork(lane);
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A caller holding the lane hands it back (and notifies) when it
      // finds a batch queued behind its request.
      lane.has_work.wait(lock, [&] {
        return (!lane.queue.empty() && !lane.executing) ||
               (stopping_ && lane.queue.empty());
      });
      if (lane.queue.empty()) {
        // stopping_ and nothing left in this lane: graceful exit,
        // everything queued here has been executed (Stop waits out a
        // caller still running).
        idle_.notify_all();
        return;
      }
      batch = std::move(lane.queue.front());
      lane.queue.pop_front();
      lane.executing = true;
      PublishReady(lane);
      queued_requests_ -= batch.size();
      in_flight_ += batch.size();
      has_space_.notify_all();
    }
    ExecuteBatch(batch, lane.scratch);
    batches_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(batch.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      lane.executing = false;
      PublishReady(lane);
      in_flight_ -= batch.size();
      if (queued_requests_ == 0 && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void Shard::ExecuteBatch(std::vector<Request>& batch, Scratch& scratch) {
  // Runs of consecutive reads go through the store's multi-get fast path;
  // everything else executes per request, preserving queue order exactly.
  size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].type == OpType::kRead) {
      size_t j = i + 1;
      while (j < batch.size() && batch[j].type == OpType::kRead) ++j;
      if (j - i >= 2) {
        ExecuteReadRun(batch.data() + i, j - i, scratch);
      } else {
        Execute(batch[i], scratch);
      }
      i = j;
    } else {
      Execute(batch[i], scratch);
      ++i;
    }
  }
}

void Shard::ExecuteReadRun(Request* reqs, size_t n, Scratch& scratch) {
  scratch.mget_keys.clear();
  scratch.mget_outs.clear();
  for (size_t i = 0; i < n; ++i) {
    scratch.mget_keys.push_back(reqs[i].key);
    // Discarded payloads may all alias the shared scratch buffer: the
    // store copies values one at a time, so each copy stays well-formed.
    scratch.mget_outs.push_back(reqs[i].out != nullptr ? reqs[i].out
                                                       : scratch.value.data());
  }
  if (scratch.mget_found_cap < n) {
    scratch.mget_found.reset(new bool[n]);
    scratch.mget_found_cap = n;
  }
  store_->GetBatch(std::span<const Key>(scratch.mget_keys),
                   scratch.mget_outs.data(), scratch.mget_found.get());
  for (size_t i = 0; i < n; ++i) {
    RequestStatus status = scratch.mget_found[i] ? RequestStatus::kOk
                                                 : RequestStatus::kNotFound;
    if (reqs[i].latency != nullptr && reqs[i].start_nanos != 0) {
      reqs[i].latency->Record(NowNanos() - reqs[i].start_nanos);
    }
    if (reqs[i].done) reqs[i].done(status);
  }
}

void Shard::Execute(Request& req, Scratch& scratch) {
  RequestStatus status = RequestStatus::kOk;
  switch (req.type) {
    case OpType::kRead:
      if (!store_->Get(req.key, req.out != nullptr ? req.out
                                                   : scratch.value.data())) {
        status = RequestStatus::kNotFound;
      }
      break;
    case OpType::kUpdate:
    case OpType::kInsert: {
      bool ok = req.value != nullptr ? store_->Put(req.key, req.value)
                                     : store_->PutSynthetic(req.key);
      if (!ok) {
        status = RequestStatus::kStoreFull;
      } else if (sync_ack_ && !replication_->AwaitReplicated()) {
        // Locally durable, but the replica never confirmed: the client
        // must treat the write as unacknowledged and may resubmit.
        status = RequestStatus::kRetry;
      }
      break;
    }
    case OpType::kReadModifyWrite:
      if (!store_->Get(req.key, req.out != nullptr ? req.out
                                                   : scratch.value.data())) {
        status = RequestStatus::kNotFound;
      } else if (!store_->PutSynthetic(req.key)) {
        status = RequestStatus::kStoreFull;
      } else if (sync_ack_ && !replication_->AwaitReplicated()) {
        status = RequestStatus::kRetry;
      }
      break;
    case OpType::kScan: {
      std::vector<Key>* out = req.scan_out;
      if (out == nullptr) {
        scratch.scan.clear();
        out = &scratch.scan;
      }
      store_->Scan(req.key, req.scan_len, out);
      break;
    }
  }
  if (req.latency != nullptr && req.start_nanos != 0) {
    req.latency->Record(NowNanos() - req.start_nanos);
  }
  if (req.done) req.done(status);
}

}  // namespace pieces::service

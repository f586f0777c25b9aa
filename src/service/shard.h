// One service shard: a StoreBackend (ViperStore or DiskStore, and the
// index inside it) owned by a small pool of worker threads draining
// per-worker (lane) request queues; a single request whose lane is idle
// runs on its submitting thread instead (see "Hand-off").
// The default is a single worker — the paper's Figs. 12/14 show most
// learned indexes are single-writer, so the only lock anywhere near such
// an index is the queue mutex, taken once per batch. When the index
// reports SupportsConcurrentWrites() (ALEX via per-node optimistic version
// locks, XIndex via per-group writer locks), a shard may run N writers:
// requests are routed to a lane by a hash of their key, which keeps
// per-key ordering while letting distinct keys execute in parallel inside
// the concurrent index.
//
// Hand-off: the mutex is not the cost that matters. A paced client sends
// about one request per batch, and handing that request to a worker costs
// an enqueue, the worker noticing it, and the completion crossing back —
// more than the index lookup and the store read together (DESIGN.md
// "Serving layer" has the traced split). So a one-request batch whose
// lane is idle (nothing queued, no thread executing it) runs on the
// submitting thread (caller-runs): Enqueue claims the lane under mu_,
// executes the request, then releases the lane and wakes its worker if a
// batch was queued meanwhile. A lane is executed by at most one thread at
// a time — its worker or one caller, tracked by Lane::executing — so a
// single-writer index keeps its contract on reads and writes alike, and
// per-key FIFO holds because a caller runs only behind an empty lane.
// Batches of two or more always queue: they amortize the hand-off and
// ride the store's multi-get. So do the earlier pieces of a multi-shard
// submission (the router clears `caller_may_run` on them, keeping the
// shards parallel) and semi-sync writes, whose replica-ack wait must not
// stall the client. For queued batches, an idle worker first yields once
// (a client its last completion woke may be queued on this CPU), then
// spins for at most kSpinWindowNs on its lane's `ready` flag (a lock-free
// mirror of "queued and not executing", written under mu_), and only then
// parks in the locked has_work.wait. The locked predicate still decides,
// so a wake-up cannot be lost and admission, drain, retire and stop
// behave as before; a spinning worker leaves no futex waiter, so the
// producer's notify_one returns without a syscall. The spin only pays
// while a producer can run beside the spinner, so workers spin only while
// the process's started workers are fewer than its usable CPUs
// (SpinsWhenIdle); otherwise they park at once.
//
// Admission control is enforced at Enqueue: the queue is bounded in
// *requests* (not batches, summed across lanes), and a full queue either
// blocks the producer or rejects the batch depending on the caller's
// AdmissionPolicy. Shutdown is graceful: Stop() lets the workers drain
// everything already queued before joining, so accepted requests always
// complete.
//
// Live rebalancing support: BeginRetire() flips the shard into a state
// where every Enqueue returns kRetired (including producers blocked in
// kBlock admission). The router treats kRetired as "the partition moved
// under you" and re-routes against the fresh partition snapshot, so a
// shard can be drained, split and destroyed while clients keep
// submitting.
#ifndef PIECES_SERVICE_SHARD_H_
#define PIECES_SERVICE_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "replication/replica_session.h"
#include "service/maintainer.h"
#include "service/request.h"
#include "store/store_backend.h"

namespace pieces::service {

class Shard {
 public:
  enum class EnqueueResult : uint8_t {
    kAccepted,
    kRejected,
    kShutdown,
    // The shard is being retired by a live split/merge; the caller must
    // re-route against the current partition snapshot.
    kRetired,
  };

  // How long an idle worker polls its lane before parking on has_work.
  // With single requests run caller-side, the worker sees queued batches.
  // On the perfbench workloads (4-vCPU KVM guest, seed 1, 10 s) 95-99 %
  // of a lane's gaps between batches end inside the spin, and 97.6-99.9 %
  // of those end within 16 us (99.5-100 % within 33 us); the parked rest
  // are 0.1-4 ms paced-phase gaps no spin would bridge. Parking at once
  // instead cost `read_mem` 4.6 % and `scan_disk` 7.0 % of ops_per_s
  // (0/10 and 1/10 pairs). It also bounds an idle worker's burn.
  static constexpr uint64_t kSpinWindowNs = 50'000;

  // True while the worker threads started (and not yet joined) across
  // every shard in the process are fewer than the CPUs its affinity mask
  // allows: only then does an idle worker spin before it parks. With a
  // worker on every CPU a spinner would hold the CPU its producer needs,
  // so workers park at once; with one usable CPU they never spin.
  static bool SpinsWhenIdle();

  // When `maintenance.enabled` and the shard's index implements
  // MaintenanceHook, Start() also spawns a background maintainer that
  // retrains drifting segments off the worker thread (maintainer.h).
  // `writers` > 1 takes effect only when the index supports concurrent
  // writes; otherwise the shard silently runs single-writer.
  Shard(size_t id, std::unique_ptr<StoreBackend> store,
        size_t queue_capacity, MaintenanceConfig maintenance = {},
        size_t writers = 1);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Attaches the shard's replication session (router wiring, before
  // Start). The shared_ptr pins the session for as long as any worker
  // might await an ack on it. With `sync_ack`, every locally durable
  // write additionally awaits the replication watermark before acking
  // kOk (AckMode::kReplicated); an ack timeout or dead link degrades the
  // write to kRetry. Such writes never run caller-side (see Enqueue), so
  // the await runs on the lane's worker thread, never on a submitting
  // client, against the independent shipper thread: it cannot deadlock
  // request execution, and it is bounded by the session's ack_timeout_us
  // regardless.
  void AttachReplication(
      std::shared_ptr<replication::ReplicaSession> session, bool sync_ack);

  // Spawns the worker threads. Batches may be enqueued before Start (they
  // simply accumulate), which makes admission control deterministic to
  // test.
  void Start();

  // Hands a non-empty batch to the workers, or — a single request on a
  // started shard whose lane is idle, when `caller_may_run` — executes it
  // on the calling thread before returning kAccepted (its `done` fires
  // inside this call). A write that awaits a replica ack (`sync_ack`)
  // always queues. On
  // any non-kAccepted result the batch is left untouched (the caller
  // completes its requests); kRejected additionally counts each request
  // as rejected. A batch larger than the queue capacity is admitted once
  // the queue is otherwise empty, so oversized batches cannot deadlock.
  // With multiple lanes the batch is split by key hash under the same
  // lock, so per-key FIFO order is preserved.
  EnqueueResult Enqueue(std::vector<Request>&& batch, AdmissionPolicy policy,
                        bool caller_may_run = true);

  // Blocks until every queued or caller-run request has been executed.
  void Drain();

  // Graceful shutdown: refuse new work, drain the queues, join the
  // workers, and wait out every caller-run request. Idempotent. Start()
  // may be called again afterwards (crash recovery restarts the workers).
  void Stop();

  // Marks the shard retired: every subsequent Enqueue — and every
  // producer currently blocked in kBlock admission — returns kRetired.
  // Already-queued requests still execute (retire, then Drain, then Stop
  // is the split sequence). Irreversible.
  void BeginRetire();
  bool retired() const;

  // Simulated power failure on this shard's medium: quiesce the workers
  // (accepted requests complete — their persists are done by the time
  // they ack), drop every unpersisted byte, rebuild the index from the
  // surviving pages, and resume serving. Requests submitted during the
  // outage complete with kShutdown. Returns the index rebuild time in
  // nanoseconds. If the shard was never started, the store still crashes
  // and recovers but no worker is spawned.
  uint64_t CrashAndRecover();

  // The attached replication session; nullptr when replication is off.
  const std::shared_ptr<replication::ReplicaSession>& replication() const {
    return replication_;
  }
  StoreBackend* store() { return store_.get(); }
  const StoreBackend& store() const { return *store_; }
  size_t id() const { return id_; }
  size_t writers() const { return lanes_.size(); }
  // Requests currently queued (admission-control backlog); the split
  // trigger's pressure signal.
  size_t QueueDepth() const;
  ShardStats Stats() const;

 private:
  // Per-lane scratch, owned by whichever thread holds the lane (its
  // worker or a caller-run request) and reused across batches:
  // discarded-read payloads, counted-scan sinks, and the gather arrays the
  // multi-get path fills per run.
  struct Scratch {
    std::vector<uint8_t> value;
    std::vector<Key> scan;
    std::vector<Key> mget_keys;
    std::vector<uint8_t*> mget_outs;
    std::unique_ptr<bool[]> mget_found;
    size_t mget_found_cap = 0;
  };

  // One writer's queue. All lane state is guarded by the shard-wide mu_
  // (admission control is a whole-shard property); only the has_work
  // signal is per-lane so a batch wakes exactly its lane's worker.
  struct Lane {
    // Lock-free mirror of "queue non-empty and not executing", stored
    // under mu_ by PublishReady and polled by the spinning worker. It
    // starts a cache line, so the spin does not share a line with
    // another lane's flag. Stop() does not set it: a spinning worker sees
    // stopping_ once its window ends, at most kSpinWindowNs later.
    alignas(64) std::atomic<bool> ready{false};
    std::condition_variable has_work;
    std::deque<std::vector<Request>> queue;
    // A thread (the lane's worker, or a caller running a single request)
    // is executing this lane; at most one ever is.
    bool executing = false;
    // Written per batch by the lane's holder: kept off the lines the
    // producers write when they queue.
    alignas(64) Scratch scratch;
  };

  size_t LaneOf(Key key) const;
  // Caller holds mu_.
  void PublishReady(Lane& lane);
  // Polls lane.ready for up to kSpinWindowNs when SpinsWhenIdle(). A hint
  // only: the caller still waits on the locked predicate.
  static void SpinForWork(const Lane& lane);
  void WorkerLoop(size_t lane);
  // Runs a single request on the calling thread on a lane it claimed
  // under `lock` (held on entry and on return, released while running).
  void RunOnCaller(Lane& lane, Request& req,
                   std::unique_lock<std::mutex>& lock);
  void ExecuteBatch(std::vector<Request>& batch, Scratch& scratch);
  // Multi-get for a run of >= 2 consecutive kRead requests.
  void ExecuteReadRun(Request* reqs, size_t n, Scratch& scratch);
  void Execute(Request& req, Scratch& scratch);

  const size_t id_;
  const size_t queue_capacity_;
  const MaintenanceConfig maintenance_;
  std::unique_ptr<StoreBackend> store_;
  // Non-null iff maintenance is enabled AND the index exposes a hook.
  std::unique_ptr<Maintainer> maintainer_;
  // Non-null iff replication is attached; sync_ack_ gates the semi-sync
  // await on the write path.
  std::shared_ptr<replication::ReplicaSession> replication_;
  bool sync_ack_ = false;

  mutable std::mutex mu_;
  std::condition_variable has_space_;  // blocked producers wait for room
  std::condition_variable idle_;       // Drain/Stop wait for quiescence
  std::vector<std::unique_ptr<Lane>> lanes_;
  size_t queued_requests_ = 0;  // requests sitting across all lane queues
  size_t in_flight_ = 0;  // popped or caller-run, not yet completed
  uint64_t caller_runs_ = 0;
  uint64_t max_queue_ = 0;
  bool stopping_ = false;
  bool retired_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;

  // Counters written by the executing threads / producers, read by
  // Stats().
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> recoveries_{0};
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_SHARD_H_

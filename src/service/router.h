// The service front door: a Router (KvService) over N range-partitioned
// shards (shard.h), each owning one store backend (ViperStore or
// DiskStore) + index instance and a small pool of worker threads.
//
//  * Partitioning is CDF-balanced: shard boundaries are equal-mass
//    quantiles of a bootstrap key sample, not equal-width slices of the
//    key domain — the same insight the paper applies to learned models
//    (approximate the CDF, not the domain) applied to shard load balance.
//    A FACE-like skewed key set splits evenly by *mass* even though 99.9%
//    of the domain is empty.
//  * Batching: SubmitBatch coalesces a client's requests into per-shard
//    batches (one queue handoff per shard per max_batch requests). A
//    paced client still sends about one request per batch, and there the
//    cost was never the queue mutex but the cross-thread hand-off itself;
//    so a one-request batch whose lane is idle runs on the submitting
//    thread, and `done` fires before Submit returns (shard.h, "Hand-off").
//    Only the last per-shard piece of a submission may run there: every
//    other piece is queued first, so cross-shard work stays parallel.
//  * Cross-shard scans fan out to every shard whose range intersects
//    [from, ...) and merge in key order — range partitioning makes the
//    merge a concatenation in shard order. Every sub-scan but the last
//    queues; the last may run on the submitting thread.
//  * Admission control (ServiceConfig::admission) bounds every shard
//    queue: kBlock applies backpressure to the client, kReject completes
//    the request with RequestStatus::kRejected.
//
// Live rebalancing: the partition is a *versioned snapshot*
// ({version, boundaries, shards}) behind an atomic pointer, read under an
// EpochGuard and swapped RCU-style. Every structural change — split,
// merge, failover — goes through one primitive, ReplaceShards: retire a
// contiguous shard range (every Enqueue bounces with kRetired), drain and
// stop it, let the caller build the successor shards from the quiesced
// stores, and publish a new snapshot; the old snapshot is handed to the
// global EpochManager so in-flight routers finish safely. A request that
// raced the swap re-routes against the fresh snapshot (a bounded number
// of times, then completes with kRetry). An optional rebalancer thread
// watches per-shard queue-depth pressure and triggers splits (and merges
// of cold adjacent shards) automatically.
//
// Replication (ServiceConfig::replication, off by default): every shard
// gets a shadow replica — a second store + index instance fed by a
// ReplicationLog tap on the primary's commit path and a shipper thread
// (replication/replica_session.h). Each Shard owns its ReplicaSession
// (Shard::replication()), so a snapshot swap moves shard and session
// together. Failover is one more ReplaceShards caller: with the primary
// quiesced, it lets the replica catch up (graceful), promotes the replica
// store via the store's crash-recovery path and wraps it in a fresh Shard
// with a new shadow replica of its own — in-flight requests bounce off
// the retired primary and re-route exactly as they do for a split.
// Replica reads (ReadPolicy::kBounce/kWait) are served inline at routing
// time when the replica has caught up to the log tail; otherwise the
// request falls through to the primary. Replica-served reads complete on
// the *submitting* thread outside any primary lane and therefore never
// record latency (the recorder is written only by the thread holding the
// request's lane).
#ifndef PIECES_SERVICE_ROUTER_H_
#define PIECES_SERVICE_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/maintainer.h"
#include "service/request.h"
#include "service/shard.h"
#include "store/disk_store.h"
#include "store/viper.h"

namespace pieces::service {

// Equal-mass range partition of the key space, built from a bootstrap
// sample of keys. Shard s owns [LowerBound(s), LowerBound(s + 1)).
class RangePartition {
 public:
  // `sample` need not be sorted; an empty (or too-small) sample falls
  // back to an equal-width split of the 64-bit domain.
  RangePartition(size_t num_shards, std::vector<Key> sample);

  // Builds a partition from explicit split keys (strictly increasing,
  // nonzero) — the split/merge path derives the successor partition from
  // the current one by inserting or erasing a boundary.
  static RangePartition FromBoundaries(std::vector<Key> boundaries);

  size_t num_shards() const { return num_shards_; }
  size_t ShardOf(Key key) const;
  // Inclusive lower bound of `shard`'s range (shard 0 starts at 0);
  // LowerBound(num_shards()) is infinity in spirit (max Key).
  Key LowerBound(size_t shard) const;
  // The num_shards-1 split keys, strictly increasing.
  const std::vector<Key>& boundaries() const { return boundaries_; }

 private:
  size_t num_shards_;
  std::vector<Key> boundaries_;
};

// Automatic split/merge policy (off by default). The rebalancer samples
// every shard's queue depth each poll interval, smooths it with an EWMA,
// and splits the hottest shard when its pressure crosses the threshold —
// the signal the paper's single-writer bottleneck shows up as first.
struct RebalanceConfig {
  bool enabled = false;
  uint64_t poll_interval_ms = 5;
  // Pressure smoothing: ewma += alpha * (depth - ewma).
  double ewma_alpha = 0.3;
  // Split when a shard's smoothed queue depth exceeds this many requests;
  // 0 means 3/4 of ServiceConfig::queue_capacity.
  size_t split_queue_depth = 0;
  // Never split a shard owning fewer keys than this (halves too small to
  // be worth a migration).
  size_t min_split_keys = 4096;
  size_t max_shards = 64;
  // Merge two adjacent shards when both are idle (pressure below 1/4 of
  // the split threshold) and their combined key count fits; 0 disables
  // merging.
  size_t merge_max_keys = 0;
  // Minimum time between structural operations, so one hot burst cannot
  // shatter the partition before the first split's effect is measurable.
  uint64_t cooldown_ms = 50;
};

struct ServiceConfig {
  size_t num_shards = 4;
  // Per-shard queue bound, in requests (admission-control horizon).
  size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Coalescing limit: SubmitBatch hands at most this many requests to a
  // shard per queue entry.
  size_t max_batch = 64;
  // Worker threads per shard. Takes effect only for indexes that report
  // SupportsConcurrentWrites() (ALEX, XIndex, OLC B-Tree); all others run
  // single-writer regardless.
  size_t writers_per_shard = 1;
  // Storage backend for every shard: "viper" (records on simulated PMem,
  // the default) or "disk" (records in paged files behind a buffer pool).
  // The serving stack is identical either way; see DESIGN.md "Storage
  // tiers".
  std::string backend = "viper";
  // Per-shard store configuration (value size, PMem capacity, latency).
  ViperStore::Config store;
  // Disk-backend configuration; used only when backend == "disk".
  // disk.path names a *directory* — each shard gets its own
  // shard_<id>.pages file inside it (value_size is taken from
  // store.value_size so both backends always agree on record shape).
  DiskStore::Config disk;
  // Per-shard background retraining (off by default). Ignored when the
  // chosen index does not implement MaintenanceHook.
  MaintenanceConfig maintenance;
  // Automatic live split/merge (off by default).
  RebalanceConfig rebalance;
  // Per-shard primary->replica replication (off by default). When
  // enabled, each shard ships its commit log to a shadow replica store;
  // see replication/replica_session.h for the knobs (ack mode, replica
  // read policy, ship batch/interval, timeouts).
  replication::ReplicationConfig replication;
};

// Outcome of one FailOverShard call.
struct FailoverReport {
  bool ok = false;
  // Wall time the shard range was unavailable: retire -> successor
  // snapshot published (includes drain, catch-up wait, promotion).
  uint64_t outage_ns = 0;
  // Index rebuild portion of the promotion (StoreBackend::Recover).
  uint64_t rebuild_ns = 0;
  // Commit records the primary had logged but the replica never applied
  // at promotion time — writes lost by the failover. Always 0 for a
  // graceful failover with a live link; under AckMode::kReplicated none
  // of these were ever acked to a client.
  uint64_t lost_records = 0;
};

class KvService {
 public:
  // `index_name` is an index/registry.h name — every shard gets its own
  // instance. `bootstrap_sample` drives the CDF-balanced partition.
  KvService(const std::string& index_name, const ServiceConfig& config,
            const std::vector<Key>& bootstrap_sample);
  ~KvService();  // Graceful: drains queues, joins workers.

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Splits `sorted_keys` by shard range and bulk-loads the shards (and
  // seeds their replicas) in parallel, shard 0 on the calling thread.
  // Call before Start. Returns false if any shard's load fails.
  bool BulkLoad(const std::vector<Key>& sorted_keys);

  // Spawns the shard workers (and the rebalancer, when enabled).
  // Requests may be submitted before Start; they queue up (subject to
  // admission control) until workers run.
  void Start();

  // Asynchronous submission. Point requests go to their owning shard;
  // scans fan out (see FanOutScan). Completion semantics: `done` fires on
  // the executing worker thread, or inline on the submitting thread when
  // the request ran on an idle lane there, was rejected, or the service
  // is shutting down. A request
  // that keeps losing the race against concurrent splits completes with
  // kRetry after kRerouteBudget attempts.
  void Submit(Request req);
  // Coalesces the batch into per-shard sub-batches before enqueueing.
  void SubmitBatch(std::vector<Request> batch);

  // Synchronous conveniences (block until the request completes).
  RequestStatus Get(Key key, uint8_t* out);
  RequestStatus Put(Key key, const uint8_t* value = nullptr);
  RequestStatus Scan(Key from, size_t count, std::vector<Key>* out);

  // Blocks until every queued request has completed.
  void Drain();
  // Graceful drain-and-shutdown: stops the rebalancer, waits out any
  // in-flight split, then stops the workers (draining their queues). New
  // submissions complete with kShutdown. Idempotent.
  void Shutdown();

  // Fails the primary of shard `shard` over to its replica: retire ->
  // drain -> (graceful: wait for the replica to catch up) -> promote the
  // replica store via Recover() -> wrap it in a fresh Shard (with a new
  // shadow replica seeded from the promoted store) -> publish the
  // successor snapshot. The old primary's medium is crashed, as if the
  // machine died. With graceful=false the replica is promoted as-is —
  // records the shipper had not delivered are lost and counted in the
  // report (the crash-failover experiment; under AckMode::kReplicated
  // those writes were never acked). Serialized with split/merge.
  // Fails (ok=false) when replication is off or the index is invalid.
  FailoverReport FailOverShard(size_t shard, bool graceful);

  // Blocks until every shard's replica has applied the commit log tail
  // as of entry. False if any replica link is dead or replication is off.
  bool WaitReplicasCaughtUp();
  // The current snapshot's replication session for shard `shard`
  // (nullptr when replication is off or out of range). Test/bench seam.
  std::shared_ptr<replication::ReplicaSession> replica_session(
      size_t shard) const;

  // Splits shard `shard` of the current partition at its key median:
  // retire -> drain -> stop -> migrate into two replacement shards ->
  // publish the successor snapshot. Serialized with every other
  // structural operation. Returns false when the split is not feasible
  // (out of range, too few keys, or shutting down); a shard whose keys
  // are all equal is rebuilt in place and also returns false. Only the
  // rebalancer enforces RebalanceConfig::max_shards — a direct call does
  // not.
  bool SplitShard(size_t shard);
  // Inverse: collapses shards `left` and `left + 1` into one.
  bool MergeShards(size_t left);

  // Simulated whole-service power failure: every shard quiesces, loses
  // its unpersisted PMem bytes, rebuilds its index from the surviving
  // durable records, and resumes serving. Shards crash and recover in
  // parallel (their rebuilds are independent). Requests submitted during
  // the outage complete with kShutdown. Returns per-shard index rebuild
  // times in nanoseconds, indexed by position in the current partition.
  std::vector<uint64_t> CrashAndRecover();

  size_t num_shards() const;
  size_t ShardOf(Key key) const;
  // Copy of the current partition (the underlying snapshot may be
  // swapped by a concurrent split the moment this returns).
  RangePartition partition() const;
  uint64_t partition_version() const;
  const std::string& index_name() const { return index_name_; }
  size_t value_size() const { return config_.store.value_size; }
  size_t TotalKeys() const;
  ServiceStats Stats() const;

  // Re-route attempts before a racing request gives up with kRetry.
  static constexpr int kRerouteBudget = 3;

 private:
  struct ScanJoin;

  // One immutable published routing table. Readers pin it with an
  // EpochGuard; shards are shared_ptr so a copied reference outlives the
  // snapshot swap (the retired snapshot drops its references when the
  // epoch system reclaims it).
  struct Snapshot {
    uint64_t version = 0;
    RangePartition partition = RangePartition(1, {});
    std::vector<std::shared_ptr<Shard>> shards;
  };

  // A contiguous run of shards and the split keys between them (one fewer
  // than shards): what ReplaceShards retires and what its build callback
  // returns in its place.
  struct ShardRange {
    std::vector<std::shared_ptr<Shard>> shards;
    std::vector<Key> boundaries;
  };
  using BuildFn = std::function<ShardRange(const ShardRange& retired)>;

  // Copy of the current snapshot (allocates: off the request path only).
  Snapshot Current() const;
  // Scans fan out; point requests go through RouteBatch.
  // `caller_may_run` (here and below): the batch is the last piece of
  // its submission, so its last per-shard piece may run on the
  // submitting thread (Shard::Enqueue); every earlier piece queues.
  void Route(std::vector<Request>&& batch, int budget, bool caller_may_run);
  // Routes every point request in `batch` against the current snapshot
  // and enqueues per-shard sub-batches. Requests bounced by a retired
  // shard wait for the successor snapshot and re-route, up to `budget`
  // times.
  void RouteBatch(std::vector<Request>&& batch, int budget,
                  bool caller_may_run);
  // Enqueues a batch routed against snapshot `version`; on kRetired,
  // re-routes the batch (budget permitting). Completes the requests
  // inline on rejection/shutdown/exhausted budget.
  void DispatchToShard(const std::shared_ptr<Shard>& shard, uint64_t version,
                       std::vector<Request>&& batch, int budget,
                       bool caller_may_run);
  void FanOutScan(Request req, int budget, bool caller_may_run);
  // Serves a kRead inline from the replica when its watermark allows;
  // true means the request completed (done fired). No latency recording
  // — completion runs on the submitting thread, outside any lane.
  bool TryReplicaRead(replication::ReplicaSession& session, Request& req);
  // Blocks until the published snapshot is newer than `version` (a split
  // in progress has not yet published). False when shutting down.
  bool WaitForNewerSnapshot(uint64_t version);
  // One store instance for shard `id`; replica stores get their own
  // paged file (shard_<id>.replica.pages) under the disk backend.
  std::unique_ptr<StoreBackend> MakeStore(size_t id, bool replica);
  // Wraps `store` in Shard `id` with, when replication is on, a new
  // shadow replica (its log replaces any tap the store still carries);
  // `seed` copies the store's image to the replica. Starts both iff the
  // service is started.
  std::shared_ptr<Shard> WrapStore(size_t id,
                                    std::unique_ptr<StoreBackend> store,
                                    bool seed);
  // A new shard owning `keys`, with values copied from the (quiesced)
  // source shards. Null on store overflow.
  std::shared_ptr<Shard> BuildShard(
      const std::vector<Key>& keys,
      const std::vector<std::shared_ptr<Shard>>& sources);
  // The one structural-change protocol (see the file comment): quiesce
  // shards [first, first + count), replace them with what `build`
  // returns, publish. Returns the retire -> publish outage in ns, or
  // nullopt (nothing retired) when shut down or out of range.
  std::optional<uint64_t> ReplaceShards(size_t first, size_t count,
                                        const BuildFn& build);
  void PublishSnapshot(Snapshot* next);
  void RebalanceLoop();
  static void CompleteInline(Request& req, RequestStatus status);
  // Completes every request Enqueue turned away with `result` (for a
  // retired shard: kRetry, the re-route budget ran out).
  static void Bounce(std::vector<Request>& batch,
                     Shard::EnqueueResult result);

  std::string index_name_;
  ServiceConfig config_;

  // Current routing table; written only under admin_mu_, read under an
  // EpochGuard. Retired snapshots go through EpochManager::Global().
  std::atomic<Snapshot*> snapshot_{nullptr};
  // Serializes structural operations (split/merge/crash/shutdown).
  std::mutex admin_mu_;
  // Pairs with snapshot_changed_: kRetired waiters sleep here until a
  // successor snapshot is published (or shutdown).
  mutable std::mutex snapshot_mu_;
  std::condition_variable snapshot_changed_;

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stop_rebalancer_{false};
  std::thread rebalancer_;
  bool started_ = false;  // under admin_mu_

  size_t next_shard_id_;  // under admin_mu_
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> failovers_{0};
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_ROUTER_H_

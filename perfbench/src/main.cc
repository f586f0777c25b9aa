// perfbench: the repository's headline benchmark. One invocation runs one
// workload with one seed and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload read_mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 drives the public KvService API and reports the end-to-end
// metrics. --trace 1 builds the same stack from public classes with span
// recording decorators around each layer and reports per-layer metrics.
// See perfbench/README.md for the workloads and every metric's definition.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/search.h"
#include "common/timer.h"
#include "index/registry.h"
#include "phases.h"
#include "replication/replica_session.h"
#include "service/router.h"
#include "service/shard.h"
#include "store/disk_store.h"
#include "store/io_engine.h"
#include "store/record_format.h"
#include "store/viper.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using pieces::StoreBackend;
using pieces::StoreIoStats;
using pieces::service::AdmissionPolicy;
using pieces::service::KvService;
using pieces::service::RangePartition;
using pieces::service::ServiceConfig;
using pieces::service::Shard;
using pieces::replication::ReplicaSession;

// Set-ups and crash recoveries per run; their medians are reported.
constexpr int kSetupReps = 3;
constexpr int kRecoverReps = 5;
// The unbounded and paced lists run as this many alternating segments.
// ops_per_s is the upper quartile of the segment rates and each latency
// metric the lower quartile over segments of the segment's percentile:
// interference from other tenants only slows the segments it hits.
constexpr size_t kSegments = 9;

// Spans written to --trace-out: the earliest of the traced phase.
constexpr size_t kSpansWritten = 200'000;

constexpr size_t kRecordBytes =
    sizeof(Key) + kValueSize + sizeof(pieces::RecordHeader);

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintJsonMetrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

// ---- Configuration ---------------------------------------------------------

ServiceConfig MakeConfig(const WorkloadSpec& spec, const Options& options,
                         const Inputs& in) {
  ServiceConfig config;
  config.num_shards = spec.shards;
  config.queue_capacity = 1024;
  config.admission = AdmissionPolicy::kBlock;
  config.max_batch = Runner::kMaxCoalesce;
  config.backend = spec.backend;
  config.store.value_size = kValueSize;
  // Every shard may in the worst case hold every record; PMem pages are
  // touched lazily, so the unused capacity costs no memory.
  config.store.pmem_capacity =
      in.max_records * kRecordBytes * 5 / 4 + (size_t{64} << 20);
  config.store.read_latency_ns = options.read_latency_ns;
  if (std::string(spec.backend) == "disk") {
    const size_t per_page = config.disk.page_size / kRecordBytes;
    const size_t data_pages = (in.load.size() + per_page - 1) / per_page;
    config.disk.path = options.data_dir;
    config.disk.pool_pages = std::max<size_t>(
        64, static_cast<size_t>(spec.pool_fraction * data_pages));
    config.disk.file_capacity =
        (in.max_records / per_page + 1024) * config.disk.page_size * 2;
    config.disk.readahead_max_pages = spec.readahead_pages;
  }
  if (spec.replication) {
    config.replication.enabled = true;
    config.replication.ack =
        pieces::replication::ReplicationConfig::AckMode::kLocal;
  }
  return config;
}

// The I/O engine "auto" resolves to on this machine (uring or threads).
std::string ResolvedIoEngine(const std::string& dir) {
  const std::string path = dir + "/engine_probe";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return "unknown";
  std::string name(pieces::MakeIoEngine("", fd, 4096)->name());
  ::close(fd);
  ::unlink(path.c_str());
  return name;
}

std::string SearchKernel() {
  return pieces::SimdKernelAvailable() &&
                 pieces::GetSearchKernel() != pieces::SearchKernel::kScalar
             ? "simd-avx2"
             : "scalar";
}

// ---- Targets ---------------------------------------------------------------

// With replication on, Drain also waits until every replica has applied
// the log: an unbounded block then counts the time to replicate its
// writes, so ops_per_s is a rate the service can sustain, not one that
// leaves the shipper an ever-growing backlog.
class KvTarget : public Target {
 public:
  explicit KvTarget(KvService* service) : service_(service) {}
  void Submit(std::vector<Request>&& batch) override {
    service_->SubmitBatch(std::move(batch));
  }
  void Drain() override {
    service_->Drain();
    if (service_->replica_session(0) != nullptr &&
        !service_->WaitReplicasCaughtUp()) {
      std::fprintf(stderr, "perfbench: replicas did not catch up\n");
      std::exit(3);
    }
  }

 private:
  KvService* service_;
};

// The traced stack: KvService's request path rebuilt from public classes —
// a RangePartition routing to one Shard per range, each owning the real
// store behind a TracedStore, built around a TracedIndex, with the
// replication log tapped through a TracedTap. The client enqueues straight
// into the shards, so each per-shard batch is one service.enqueue span.
class TracedStack : public Target {
 public:
  TracedStack(const WorkloadSpec& spec, const ServiceConfig& config,
              const Options& options, const std::vector<Key>& sample)
      : partition_(spec.shards, sample) {
    for (size_t s = 0; s < partition_.num_shards(); ++s) {
      Part part;
      auto index =
          std::make_unique<trace::TracedIndex>(pieces::MakeIndex(spec.index));
      part.index = index.get();
      std::unique_ptr<StoreBackend> inner =
          MakeStore(config, std::move(index), "traced_" + std::to_string(s));
      part.inner = inner.get();
      if (config.replication.enabled) {
        part.session = std::make_shared<ReplicaSession>(
            MakeStore(config, pieces::MakeIndex(spec.index),
                      "replica_" + std::to_string(s)),
            config.replication);
        inner->SetCommitTap(
            std::make_shared<trace::TracedTap>(part.session->log()));
      }
      std::unique_ptr<StoreBackend> outer =
          std::make_unique<trace::TracedStore>(std::move(inner));
      if (options.corrupt_payload) {
        outer = std::make_unique<trace::CorruptingStore>(std::move(outer));
      }
      part.shard = std::make_unique<Shard>(s, std::move(outer),
                                           config.queue_capacity);
      if (part.session != nullptr) {
        part.shard->AttachReplication(part.session, /*sync_ack=*/false);
      }
      parts_.push_back(std::move(part));
    }
  }

  ~TracedStack() override {
    for (Part& part : parts_) {
      part.shard->Stop();
      if (part.session != nullptr) part.session->Stop();
    }
  }

  bool BulkLoad(const std::vector<Key>& sorted) {
    for (size_t s = 0; s < parts_.size(); ++s) {
      auto begin = std::lower_bound(sorted.begin(), sorted.end(),
                                    partition_.LowerBound(s));
      auto end = s + 1 < parts_.size()
                     ? std::lower_bound(begin, sorted.end(),
                                        partition_.LowerBound(s + 1))
                     : sorted.end();
      if (!parts_[s].shard->store()->BulkLoad(std::vector<Key>(begin, end))) {
        return false;
      }
      if (parts_[s].session != nullptr &&
          !parts_[s].session->SeedFromPrimary(*parts_[s].inner)) {
        return false;
      }
    }
    return true;
  }

  void Start() {
    for (Part& part : parts_) {
      if (part.session != nullptr) part.session->Start();
      part.shard->Start();
    }
  }

  void Submit(std::vector<Request>&& batch) override {
    if (parts_.size() == 1) {
      Enqueue(0, std::move(batch));
      return;
    }
    std::vector<std::vector<Request>> per_shard(parts_.size());
    for (Request& req : batch) {
      per_shard[partition_.ShardOf(req.key)].push_back(std::move(req));
    }
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (!per_shard[s].empty()) Enqueue(s, std::move(per_shard[s]));
    }
  }

  void Drain() override {
    for (Part& part : parts_) part.shard->Drain();
  }

  // Crashes and recovers every shard in parallel; returns the wall time.
  double CrashAndRecoverSeconds() {
    const uint64_t start = pieces::NowNanos();
    std::vector<std::thread> threads;
    for (Part& part : parts_) {
      threads.emplace_back([&part] { part.shard->CrashAndRecover(); });
    }
    for (std::thread& t : threads) t.join();
    return static_cast<double>(pieces::NowNanos() - start) * 1e-9;
  }

  // Blocks until every replica applied the log tail; returns the records
  // that were still unapplied when the wait began.
  uint64_t CatchUpReplicas() {
    const uint64_t pending = ReplicaLag();
    for (Part& part : parts_) {
      if (part.session == nullptr) continue;
      trace::Scope scope(trace::Kind::kReplCatchup);
      part.session->WaitCaughtUp();
    }
    return pending;
  }

  struct Counters {
    StoreIoStats io;
    uint64_t moved_keys = 0;
    uint64_t retrains = 0;
    uint64_t shard_ops = 0;
    uint64_t shard_batches = 0;
    uint64_t repl_applied = 0;
    uint64_t repl_batches = 0;
    uint64_t repl_ack_failures = 0;
  };

  Counters Sample() const {
    Counters c;
    for (const Part& part : parts_) {
      const StoreIoStats io = part.inner->IoStats();
      c.io.bytes_written += io.bytes_written;
      c.io.barriers += io.barriers;
      c.io.page_fetches += io.page_fetches;
      c.io.pool_hits += io.pool_hits;
      c.io.pool_misses += io.pool_misses;
      c.io.pool_evictions += io.pool_evictions;
      c.io.io_errors += io.io_errors;
      c.io.io_batches += io.io_batches;
      c.io.io_waits += io.io_waits;
      c.io.readahead_pages += io.readahead_pages;
      c.io.readahead_hits += io.readahead_hits;
      const pieces::IndexStats is = part.index->Stats();
      c.moved_keys += is.moved_keys;
      c.retrains += is.retrain_count;
      const pieces::service::ShardStats ss = part.shard->Stats();
      c.shard_ops += ss.ops;
      c.shard_batches += ss.batches;
      if (part.session != nullptr) {
        const auto rs = part.session->Stats();
        c.repl_applied += rs.applied;
        c.repl_batches += rs.batches_shipped;
        c.repl_ack_failures += rs.ack_failures;
      }
    }
    return c;
  }

  bool replicated() const { return parts_.front().session != nullptr; }

  // Records committed on the primaries but not yet applied on replicas.
  uint64_t ReplicaLag() const {
    uint64_t lag = 0;
    for (const Part& part : parts_) {
      if (part.session != nullptr) lag += part.session->Stats().lag;
    }
    return lag;
  }

  double bulkload_seconds() const {
    uint64_t ns = 0;
    for (const Part& part : parts_) ns += part.index->bulkload_ns();
    return static_cast<double>(ns) * 1e-9;
  }

  // Index-structure bytes per key, max prediction error, and mean depth
  // weighted by each shard's key count.
  void IndexShape(double* bytes_per_key, double* max_error,
                  double* avg_depth) const {
    double bytes = 0;
    double keys = 0;
    double depth = 0;
    *max_error = 0;
    for (const Part& part : parts_) {
      const double n = static_cast<double>(part.inner->size());
      const pieces::IndexStats is = part.index->Stats();
      bytes += static_cast<double>(part.index->IndexSizeBytes());
      keys += n;
      depth += is.avg_depth * n;
      *max_error = std::max(*max_error, static_cast<double>(is.max_error));
    }
    *bytes_per_key = keys > 0 ? bytes / keys : 0;
    *avg_depth = keys > 0 ? depth / keys : 0;
  }

 private:
  struct Part {
    std::unique_ptr<Shard> shard;
    std::shared_ptr<ReplicaSession> session;
    StoreBackend* inner = nullptr;  // the real store, owned via shard
    trace::TracedIndex* index = nullptr;
  };

  static std::unique_ptr<StoreBackend> MakeStore(
      const ServiceConfig& config, std::unique_ptr<pieces::OrderedIndex> index,
      const std::string& file) {
    if (config.backend == "disk") {
      pieces::DiskStore::Config disk = config.disk;
      disk.value_size = config.store.value_size;
      disk.path += "/" + file + ".pages";
      auto store = std::make_unique<pieces::DiskStore>(std::move(index), disk);
      if (!store->ok()) {
        std::fprintf(stderr, "perfbench: %s\n", store->error().c_str());
        std::exit(2);
      }
      return store;
    }
    return std::make_unique<pieces::ViperStore>(std::move(index),
                                                config.store);
  }

  void Enqueue(size_t s, std::vector<Request>&& batch) {
    trace::Scope scope(trace::Kind::kEnqueue,
                       static_cast<uint32_t>(batch.size()));
    const Shard::EnqueueResult result =
        parts_[s].shard->Enqueue(std::move(batch), AdmissionPolicy::kBlock);
    if (result == Shard::EnqueueResult::kAccepted) return;
    // Enqueue leaves a refused batch untouched; complete it as failed.
    for (Request& req : batch) {
      if (req.done) req.done(RequestStatus::kShutdown);
    }
  }

  RangePartition partition_;
  std::vector<Part> parts_;
};

// ---- Shared steps ----------------------------------------------------------

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(const PhaseRecord& phase) {
    attempted += phase.ops.size();
    failed += phase.Failures();
  }
};

// The post-recovery check: sampled loaded keys plus every acknowledged
// insert must read back with the right payload.
std::vector<Op> RecheckOps(
    const Inputs& in,
    std::initializer_list<std::span<const PhaseRecord>> phase_lists) {
  std::vector<Op> ops = in.recheck;
  for (std::span<const PhaseRecord> phases : phase_lists) {
    for (const PhaseRecord& phase : phases) {
      for (size_t i = 0; i < phase.ops.size(); ++i) {
        const Op& op = phase.ops[i];
        if (op.type == OpType::kInsert && phase.ok[i]) {
          ops.push_back(Op{OpType::kRead, op.key, 0});
        }
      }
    }
  }
  return ops;
}

bool NotRead(OpType type) { return !IsRead(type); }

// Part k of kSegments equal parts of `ops`.
std::span<const Op> Segment(const std::vector<Op>& ops, size_t k) {
  return std::span<const Op>(ops).subspan(
      ops.size() * k / kSegments,
      ops.size() * (k + 1) / kSegments - ops.size() * k / kSegments);
}

double GenLagP99Us(std::span<const PhaseRecord> phases) {
  std::vector<double> lag;
  for (const PhaseRecord& phase : phases) {
    lag.insert(lag.end(), phase.lag_ns.begin(), phase.lag_ns.end());
  }
  return Percentile(lag, 0.99) * 1e-3;
}

// Most requests submitted but not yet completed at any submission instant
// of a paced phase (queued plus executing, over all shards).
double MaxInFlight(const PhaseRecord& phase) {
  std::vector<uint64_t> done(phase.ok.size());
  for (size_t i = 0; i < done.size(); ++i) {
    done[i] = phase.Due(i) + phase.latency_ns[i];
  }
  std::sort(done.begin(), done.end());
  size_t completed = 0;
  size_t most = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    const uint64_t submitted = phase.Due(i) + phase.lag_ns[i];
    while (completed < done.size() && done[completed] <= submitted) {
      ++completed;
    }
    most = std::max(most, i + 1 - std::min(completed, i + 1));
  }
  return static_cast<double>(most);
}

double OpsPerSecondAchieved(const PhaseRecord& phase) {
  uint64_t last = phase.start;
  for (size_t i = 0; i < phase.ok.size(); ++i) {
    last = std::max(last, phase.Due(i) + phase.latency_ns[i]);
  }
  return last > phase.start ? static_cast<double>(phase.ok.size()) * 1e9 /
                                  static_cast<double>(last - phase.start)
                            : 0;
}

std::unique_ptr<KvService> SetUpService(const WorkloadSpec& spec,
                                        const ServiceConfig& config,
                                        const Inputs& in, double* seconds) {
  const uint64_t start = pieces::NowNanos();
  auto service = std::make_unique<KvService>(spec.index, config, in.sample);
  if (!service->BulkLoad(in.load)) return nullptr;
  service->Start();
  *seconds = static_cast<double>(pieces::NowNanos() - start) * 1e-9;
  return service;
}

void PrintDiagnostics(const char* label, std::span<const PhaseRecord> paced,
                      double offered) {
  std::vector<double> reads = LatenciesUs(paced, IsRead);
  std::vector<double> other = LatenciesUs(paced, NotRead);
  std::fprintf(stderr, "[%s] offered %.0f ops/s; per segment: achieved "
               "ops/s, read p50/p90 us:", label, offered);
  for (const PhaseRecord& segment : paced) {
    std::vector<double> lat = LatenciesUs({&segment, 1}, IsRead);
    std::fprintf(stderr, " %.0f %.1f/%.1f;", OpsPerSecondAchieved(segment),
                 Percentile(lat, 0.5), Percentile(lat, 0.9));
  }
  std::fprintf(stderr,
               " whole phase: reads n=%zu "
               "p50 %.2f p90 %.2f p99 %.2f p999 %.2f us; non-reads n=%zu "
               "p50 %.2f p90 %.2f p99 %.2f us; generator lateness p99 "
               "%.2f us\n",
               reads.size(), Percentile(reads, 0.5), Percentile(reads, 0.9),
               Percentile(reads, 0.99), Percentile(reads, 0.999),
               other.size(), Percentile(other, 0.5), Percentile(other, 0.9),
               Percentile(other, 0.99), GenLagP99Us(paced));
}

// ---- --trace 0: end-to-end metrics through KvService -------------------------

int RunEndToEnd(const WorkloadSpec& spec, const Options& options,
                const Inputs& in, std::vector<Metric>* metrics,
                Tally* tally) {
  const ServiceConfig config = MakeConfig(spec, options, in);
  std::unique_ptr<KvService> service;
  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    service.reset();  // tear-down is not part of set-up
    double seconds = 0;
    service = SetUpService(spec, config, in, &seconds);
    if (service == nullptr) {
      std::fprintf(stderr, "perfbench: bulk load failed\n");
      return 2;
    }
    setups.push_back(seconds);
  }

  KvTarget target(service.get());
  Runner runner(&in.load, /*link_spans=*/false);
  tally->Add(runner.RunUnbounded(target, in.warmup));
  // The unbounded and paced lists are cut into kSegments equal parts and
  // run alternately, so both kinds of measurement sample the whole run;
  // each list is still replayed exactly once, in order.
  const double rate = spec.paced_ops_per_s;
  std::vector<PhaseRecord> blocks;
  std::vector<PhaseRecord> windows;
  for (size_t k = 0; k < kSegments; ++k) {
    blocks.push_back(runner.RunUnbounded(target, Segment(in.unbounded, k)));
    tally->Add(blocks.back());
    windows.push_back(runner.RunPaced(target, Segment(in.paced, k), rate));
    tally->Add(windows.back());
  }
  std::vector<double> block_rates;
  std::fprintf(stderr, "[unbounded] ops/s per block:");
  for (const PhaseRecord& block : blocks) {
    block_rates.push_back(block.ops_per_s);
    std::fprintf(stderr, " %.0f", block.ops_per_s);
  }
  std::fprintf(stderr, "\n");
  PrintDiagnostics("paced", windows, rate);

  std::vector<double> recovers;
  for (int r = 0; r < kRecoverReps; ++r) {
    const uint64_t start = pieces::NowNanos();
    service->CrashAndRecover();
    recovers.push_back(static_cast<double>(pieces::NowNanos() - start) *
                       1e-9);
  }
  std::fprintf(stderr, "[setup] s:");
  for (double v : setups) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "; [recover] s:");
  for (double v : recovers) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");
  const std::vector<Op> recheck = RecheckOps(in, {blocks, windows});
  tally->Add(runner.RunUnbounded(target, recheck));
  service->Shutdown();

  *metrics = {
      {"setup_s", "s", Median(setups)},
      {"ops_per_s", "1/s", Percentile(block_rates, 0.75)},
      {"read_p50_us", "us", SegmentPercentileUs(windows, IsRead, 0.5)},
      {"nonread_p50_us", "us", SegmentPercentileUs(windows, NotRead, 0.5)},
      {"recover_s", "s", Median(recovers)},
  };
  return 0;
}

// ---- --trace 1: per-layer metrics from the traced stack ----------------------

struct StoreSpanInfo {
  trace::Kind kind;
  uint64_t start = 0;
  double ns = 0;
  double index_ns = 0;  // child index spans
  double tap_ns = 0;    // child commit-tap spans
  uint32_t requests = 0;  // requests linked to this span
};

int RunTraced(const WorkloadSpec& spec, const Options& options,
              const Inputs& in, std::vector<Metric>* metrics, Tally* tally) {
  const ServiceConfig config = MakeConfig(spec, options, in);

  // Both paced phases below replay the same leading share of the paced
  // op list at the pinned rate.
  const double rate = spec.paced_ops_per_s;
  const std::vector<Op> traced_ops(
      in.paced.begin(),
      in.paced.begin() +
          std::min(in.paced.size(),
                   std::max<size_t>(100, static_cast<size_t>(
                                             rate * options.seconds *
                                             kTracedShare))));

  // Untraced reference at the same offered load: trace overhead and the
  // tail diagnostics come from here.
  PhaseRecord reference;
  {
    double seconds = 0;
    std::unique_ptr<KvService> service =
        SetUpService(spec, config, in, &seconds);
    if (service == nullptr) return 2;
    KvTarget target(service.get());
    Runner runner(&in.load, false);
    tally->Add(runner.RunUnbounded(target, in.warmup));
    reference = runner.RunPaced(target, traced_ops, rate);
    tally->Add(reference);
    PrintDiagnostics("untraced", {&reference, 1}, rate);
  }

  TracedStack stack(spec, config, options, in.sample);
  if (!stack.BulkLoad(in.load)) return 2;
  const double bulkload_s = stack.bulkload_seconds();
  stack.Start();
  Runner runner(&in.load, /*link_spans=*/true);
  tally->Add(runner.RunUnbounded(stack, in.warmup));

  const TracedStack::Counters before = stack.Sample();
  std::vector<double> lag_samples;
  uint64_t next_sample = 0;
  auto sample_lag = [&] {
    const uint64_t now = pieces::NowNanos();
    if (now < next_sample) return;
    next_sample = now + 1'000'000;
    lag_samples.push_back(static_cast<double>(stack.ReplicaLag()));
  };
  trace::Enable(true);
  const PhaseRecord paced =
      runner.RunPaced(stack, traced_ops, rate,
                      stack.replicated() ? std::function<void()>(sample_lag)
                                         : std::function<void()>());
  trace::Enable(false);
  tally->Add(paced);
  PrintDiagnostics("traced", {&paced, 1}, rate);
  const TracedStack::Counters after = stack.Sample();
  trace::Enable(true);
  const uint64_t catchup_records = stack.CatchUpReplicas();
  trace::Enable(false);
  std::vector<trace::Span> spans = trace::Collect();

  std::vector<double> recovers;
  for (int r = 0; r < kRecoverReps; ++r) {
    recovers.push_back(stack.CrashAndRecoverSeconds());
  }
  const std::vector<Op> recheck =
      RecheckOps(in, {std::span<const PhaseRecord>(&paced, 1)});
  tally->Add(runner.RunUnbounded(stack, recheck));

  if (!options.trace_out.empty() &&
      !trace::WriteSpans(options.trace_out, spans, kSpansWritten)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }

  // -- Span analysis: self time per layer over the traced phase.
  std::unordered_map<uint64_t, StoreSpanInfo> stores;
  struct Agg {
    double ns = 0;
    uint64_t calls = 0;
    uint64_t keys = 0;
  };
  Agg kinds[static_cast<size_t>(trace::Kind::kCount)];
  for (const trace::Span& s : spans) {
    Agg& agg = kinds[static_cast<size_t>(s.kind)];
    agg.ns += static_cast<double>(s.end - s.start);
    agg.calls += 1;
    agg.keys += s.n;
    if (trace::IsStoreKind(s.kind)) {
      StoreSpanInfo& info = stores[s.id];
      info.kind = s.kind;
      info.start = s.start;
      info.ns = static_cast<double>(s.end - s.start);
    }
  }
  for (const trace::Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = stores.find(s.parent);
    if (it == stores.end()) continue;
    const double ns = static_cast<double>(s.end - s.start);
    if (trace::IsIndexKind(s.kind)) it->second.index_ns += ns;
    if (s.kind == trace::Kind::kReplTap) it->second.tap_ns += ns;
  }
  for (size_t i = 0; i < paced.ops.size(); ++i) {
    auto it = stores.find(paced.store_span[i]);
    if (paced.ok[i] && it != stores.end()) ++it->second.requests;
  }
  double request_ns = 0;
  double store_incl_ns = 0;
  double index_ns = 0;
  double tap_ns = 0;
  std::vector<double> queue_wait_us;
  for (size_t i = 0; i < paced.ops.size(); ++i) {
    auto it = stores.find(paced.store_span[i]);
    if (!paced.ok[i] || it == stores.end()) continue;
    const StoreSpanInfo& info = it->second;
    const double share = 1.0 / info.requests;
    const uint64_t submitted = paced.Due(i) + paced.lag_ns[i];
    request_ns += static_cast<double>(paced.latency_ns[i] - paced.lag_ns[i]);
    store_incl_ns += info.ns * share;
    index_ns += info.index_ns * share;
    tap_ns += info.tap_ns * share;
    queue_wait_us.push_back(
        static_cast<double>(info.start - submitted) * 1e-3);
  }
  double store_all_ns = 0;
  double store_linked_ns = 0;
  double read_self_ns = 0;
  double nonread_self_ns = 0;
  for (const auto& [id, info] : stores) {
    store_all_ns += info.ns;
    if (info.requests > 0) store_linked_ns += info.ns;
    const double self = info.ns - info.index_ns - info.tap_ns;
    if (info.kind == trace::Kind::kStoreGet ||
        info.kind == trace::Kind::kStoreGetBatch) {
      read_self_ns += self;
    } else {
      nonread_self_ns += self;
    }
  }
  auto at = [&](trace::Kind k) -> const Agg& {
    return kinds[static_cast<size_t>(k)];
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double read_keys = static_cast<double>(
      at(trace::Kind::kStoreGet).keys + at(trace::Kind::kStoreGetBatch).keys);
  const double read_calls =
      static_cast<double>(at(trace::Kind::kStoreGet).calls +
                          at(trace::Kind::kStoreGetBatch).calls);
  const double puts = static_cast<double>(at(trace::Kind::kStorePut).calls);
  const double scans = static_cast<double>(at(trace::Kind::kStoreScan).calls);
  const double index_read_keys = static_cast<double>(
      at(trace::Kind::kIndexGet).keys + at(trace::Kind::kIndexGetBatch).keys);
  const double inserts =
      static_cast<double>(at(trace::Kind::kIndexInsert).calls);
  const double index_nonread_calls =
      inserts + static_cast<double>(at(trace::Kind::kIndexScan).calls);

  const StoreIoStats& io0 = before.io;
  const StoreIoStats& io1 = after.io;
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double pool_lookups =
      delta(io0.pool_hits, io1.pool_hits) +
      delta(io0.pool_misses, io1.pool_misses);

  std::vector<double> ref_reads = LatenciesUs({&reference, 1}, IsRead);
  std::vector<double> ref_other = LatenciesUs({&reference, 1}, NotRead);
  std::vector<double> traced_reads = LatenciesUs({&paced, 1}, IsRead);
  const double ref_read_p999 = Percentile(ref_reads, 0.999);
  const double tail_samples = static_cast<double>(std::count_if(
      ref_reads.begin(), ref_reads.end(),
      [&](double v) { return v > ref_read_p999; }));
  double bytes_per_key = 0;
  double max_error = 0;
  double avg_depth = 0;
  stack.IndexShape(&bytes_per_key, &max_error, &avg_depth);
  const double store_self_ns = store_incl_ns - index_ns - tap_ns;

  *metrics = {
      {"service.submit_ns", "ns",
       ratio(at(trace::Kind::kEnqueue).ns,
             static_cast<double>(at(trace::Kind::kEnqueue).keys))},
      {"service.queue_wait_us_p50", "us", Percentile(queue_wait_us, 0.5)},
      {"service.queue_wait_us_p90", "us", Percentile(queue_wait_us, 0.9)},
      {"service.reqs_per_batch", "count",
       ratio(delta(before.shard_ops, after.shard_ops),
             delta(before.shard_batches, after.shard_batches))},
      {"service.max_queue", "count", MaxInFlight(paced)},
      {"service.self_frac", "frac",
       ratio(request_ns - store_incl_ns, request_ns)},
      {"service.gen_lag_us_p99", "us", GenLagP99Us({&reference, 1})},
      {"service.read_p90_us", "us", Percentile(ref_reads, 0.9)},
      {"service.nonread_p90_us", "us", Percentile(ref_other, 0.9)},
      {"service.read_p99_us", "us", Percentile(ref_reads, 0.99)},
      {"service.read_p999_us", "us", ref_read_p999},
      {"service.nonread_p99_us", "us", Percentile(ref_other, 0.99)},
      {"service.tail_samples", "count", tail_samples},
      {"index.read_ns_per_key", "ns",
       ratio(at(trace::Kind::kIndexGet).ns +
                 at(trace::Kind::kIndexGetBatch).ns +
                 at(trace::Kind::kIndexPredict).ns,
             index_read_keys)},
      {"index.nonread_ns", "ns",
       ratio(at(trace::Kind::kIndexInsert).ns + at(trace::Kind::kIndexScan).ns,
             index_nonread_calls)},
      {"index.self_frac", "frac", ratio(index_ns, request_ns)},
      {"index.predicts_per_lookup", "count",
       ratio(static_cast<double>(at(trace::Kind::kIndexPredict).calls),
             index_read_keys)},
      {"index.moved_keys_per_insert", "count",
       ratio(delta(before.moved_keys, after.moved_keys), inserts)},
      {"index.retrains", "count", delta(before.retrains, after.retrains)},
      {"index.max_error", "count", max_error},
      {"index.avg_depth", "count", avg_depth},
      {"index.bytes_per_key", "bytes", bytes_per_key},
      {"index.bulkload_s", "s", bulkload_s},
      {"store.read_self_ns_per_key", "ns", ratio(read_self_ns, read_keys)},
      {"store.keys_per_read_call", "count", ratio(read_keys, read_calls)},
      {"store.nonread_self_ns", "ns", ratio(nonread_self_ns, puts + scans)},
      {"store.self_frac", "frac", ratio(store_self_ns, request_ns)},
      {"store.page_fetches_per_lookup", "count",
       ratio(delta(io0.page_fetches, io1.page_fetches), read_keys + scans)},
      {"store.pool_hit_rate", "frac",
       ratio(delta(io0.pool_hits, io1.pool_hits), pool_lookups)},
      {"store.evictions_per_op", "count",
       ratio(delta(io0.pool_evictions, io1.pool_evictions),
             static_cast<double>(paced.ops.size()))},
      {"store.io_waits_per_batch", "count",
       ratio(delta(io0.io_waits, io1.io_waits),
             delta(io0.io_batches, io1.io_batches))},
      {"store.readahead_useful_frac", "frac",
       ratio(delta(io0.readahead_hits, io1.readahead_hits),
             delta(io0.readahead_pages, io1.readahead_pages))},
      {"store.io_errors", "count", delta(io0.io_errors, io1.io_errors)},
      {"store.barriers_per_put", "count",
       ratio(delta(io0.barriers, io1.barriers), puts)},
      {"store.bytes_written_per_user_byte", "count",
       ratio(delta(io0.bytes_written, io1.bytes_written),
             puts * static_cast<double>(sizeof(Key) + kValueSize))},
      {"store.recover_s", "s", Median(recovers)},
      {"repl.self_frac", "frac", ratio(tap_ns, request_ns)},
      {"repl.lag_records_p50", "count", Percentile(lag_samples, 0.5)},
      {"repl.lag_records_max", "count", Percentile(lag_samples, 1.0)},
      {"repl.records_per_batch", "count",
       ratio(delta(before.repl_applied, after.repl_applied),
             delta(before.repl_batches, after.repl_batches))},
      {"repl.catchup_records", "count",
       static_cast<double>(catchup_records)},
      {"repl.ack_failures", "count",
       delta(before.repl_ack_failures, after.repl_ack_failures)},
      {"trace.overhead_frac", "frac",
       ratio(Percentile(traced_reads, 0.5), Percentile(ref_reads, 0.5)) - 1},
      {"trace.attributed_frac", "frac",
       ratio(store_linked_ns, store_all_ns)},
  };
  std::fprintf(stderr,
               "[traced] self time over %zu requests: service %.3f store "
               "%.3f index %.3f repl %.3f (sum %.4f)\n",
               queue_wait_us.size(),
               ratio(request_ns - store_incl_ns, request_ns),
               ratio(store_self_ns, request_ns), ratio(index_ns, request_ns),
               ratio(tap_ns, request_ns),
               ratio(request_ns - store_incl_ns + store_self_ns + index_ns +
                         tap_ns,
                     request_ns));
  return 0;
}

// ---- Arguments -------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-payload") {
      o->corrupt_payload = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      o->trace = std::strtoull(v, &end, 10) != 0;
    } else if (arg == "--scale") {
      o->scale = std::strtod(v, &end);
    } else if (arg == "--read-latency-ns") {
      o->read_latency_ns = std::strtoull(v, &end, 10);
    } else if (arg == "--data-dir") {
      o->data_dir = v;
    } else if (arg == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o->workload.empty() && o->seconds > 0 && o->scale > 0 &&
         !o->data_dir.empty();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--scale X] "
                 "[--read-latency-ns N] [--corrupt-payload] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (spec->scan_pct > 0 && (spec->shards > 1 || spec->insert_pct > 0 ||
                             spec->update_pct > 0)) {
    // ScanOk checks against the loaded key set and the traced stack does
    // not fan scans out across shards.
    std::fprintf(stderr, "perfbench: scans need one shard and no writes\n");
    return 2;
  }
  if (options.corrupt_payload && !options.trace) {
    std::fprintf(stderr, "perfbench: --corrupt-payload needs --trace 1\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  options.data_dir += "/run." + std::to_string(::getpid());
  if (!std::filesystem::create_directories(options.data_dir, ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.data_dir.c_str());
    return 2;
  }

  const Inputs in = MakeInputs(*spec, options);
  if (!in.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", in.error.c_str());
    return 2;
  }
  std::vector<Metric> metrics;
  Tally tally;
  const int rc = options.trace
                     ? RunTraced(*spec, options, in, &metrics, &tally)
                     : RunEndToEnd(*spec, options, in, &metrics, &tally);
  const std::string engine = std::string(spec->backend) == "disk"
                                 ? ResolvedIoEngine(options.data_dir)
                                 : "none";
  std::filesystem::remove_all(options.data_dir, ec);
  if (rc != 0) return rc;

  // Provenance line (run.py adds the source revision), then the result.
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.17g, \"trace\": %d, \"scale\": %.17g, "
      "\"compiler\": \"%s\", \"nproc\": %u, \"index\": \"%s\", "
      "\"backend\": \"%s\", \"shards\": %zu, \"loaded_keys\": %zu, "
      "\"warmup_ops\": %zu, \"unbounded_ops\": %zu, \"paced_ops\": %zu, "
      "\"paced_ops_per_s\": %.17g, \"io_engine\": \"%s\", "
      "\"search_kernel\": \"%s\", \"value_bytes\": %zu, "
      "\"read_latency_ns\": %" PRIu64 ", \"error_rate\": %.17g}}\n",
      spec->name, options.seed, options.seconds, options.trace ? 1 : 0,
      options.scale, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), spec->index, spec->backend,
      spec->shards, in.load.size(), in.warmup.size(), in.unbounded.size(),
      in.paced.size(), spec->paced_ops_per_s, engine.c_str(),
      SearchKernel().c_str(), kValueSize, options.read_latency_ns,
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": ",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  PrintJsonMetrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

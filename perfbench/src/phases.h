// The benchmark's client: one thread that replays a fixed op list exactly
// once against a Target, either as fast as admission control allows
// (unbounded offer, for throughput) or on a fixed arrival schedule (open
// loop, for latency measured from each op's scheduled arrival). Every
// completion is checked for correctness on the thread that completes it.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "service/request.h"
#include "workload.h"

namespace perfbench {

using pieces::service::Request;
using pieces::service::RequestStatus;

// Where the client's requests go: the KvService router (untraced runs) or
// the benchmark-side traced stack.
class Target {
 public:
  virtual ~Target() = default;
  // Hands over requests whose `done` the target must eventually call.
  virtual void Submit(std::vector<Request>&& batch) = 0;
  // Blocks until every submitted request has completed.
  virtual void Drain() = 0;
};

// Per-op record of one phase; index i describes ops[i]. Times are kept
// as offsets from the op's scheduled arrival, Due(i), to stay at 9 bytes
// per op.
struct PhaseRecord {
  std::span<const Op> ops;
  uint64_t start = 0;  // Due(0), ns
  double gap_ns = 0;   // scheduled inter-arrival gap (0: all due at once)
  std::vector<uint32_t> lag_ns;      // submitted - due (paced phases)
  std::vector<uint32_t> latency_ns;  // completed - due (paced phases)
  std::vector<uint8_t> ok;           // status kOk and output verified
  std::vector<uint64_t> store_span;  // traced runs: linked store span
  // Unbounded phases: ops submitted / (drained - first submission).
  double ops_per_s = 0;

  uint64_t Due(size_t i) const;
  size_t Failures() const;
};

class Runner {
 public:
  // `load` is the sorted loaded key set scans are checked against;
  // `link_spans` records each request's store span (traced runs).
  Runner(const std::vector<Key>* load, bool link_spans);
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // Submits `ops` in chunks as fast as the target accepts them, then
  // drains; records throughput, never latency.
  PhaseRecord RunUnbounded(Target& target, std::span<const Op> ops);
  // Open loop: op i is due at start + i / ops_per_s. The client spins
  // until the next op is due, then submits every op already due (at most
  // kMaxCoalesce) in one batch. `tick` runs while the client waits.
  PhaseRecord RunPaced(Target& target, std::span<const Op> ops,
                       double ops_per_s,
                       const std::function<void()>& tick = {});

  static constexpr size_t kMaxCoalesce = 64;

 private:
  // Output slots for reads and scans, reused round-robin; a slot is
  // busy from submission until its completion ran.
  static constexpr size_t kRing = 1 << 14;

  Request MakeRequest(PhaseRecord& phase, size_t i);
  void Complete(uint32_t i, RequestStatus status);

  const std::vector<Key>* load_;
  const bool link_spans_;
  PhaseRecord* phase_ = nullptr;  // the phase in progress
  std::unique_ptr<uint8_t[]> values_;
  std::vector<std::vector<Key>> scans_;
  std::unique_ptr<std::atomic<uint8_t>[]> busy_;
};

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// Latency (completion - scheduled arrival, in microseconds) of the verified
// ops matching `pick` in paced phases.
std::vector<double> LatenciesUs(std::span<const PhaseRecord> phases,
                                bool (*pick)(OpType));

// The lower quartile, over paced segments, of each segment's q-quantile
// latency. Interference from outside the program (other tenants of the
// machine) only ever slows the segments it hits, so the quicker segments
// estimate the program's own latency; a change to the program moves every
// segment.
double SegmentPercentileUs(std::span<const PhaseRecord> segments,
                           bool (*pick)(OpType), double q);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_

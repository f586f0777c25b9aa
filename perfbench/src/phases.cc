#include "phases.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/timer.h"
#include "trace.h"

namespace perfbench {

uint64_t PhaseRecord::Due(size_t i) const {
  return start + static_cast<uint64_t>(std::llround(i * gap_ns));
}

size_t PhaseRecord::Failures() const {
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), 0));
}

Runner::Runner(const std::vector<Key>* load, bool link_spans)
    : load_(load),
      link_spans_(link_spans),
      values_(new uint8_t[kRing * kValueSize]),
      scans_(kRing),
      busy_(new std::atomic<uint8_t>[kRing]) {
  for (size_t i = 0; i < kRing; ++i) busy_[i].store(0);
}

namespace {

PhaseRecord NewPhase(std::span<const Op> ops, bool timed, bool link_spans) {
  PhaseRecord phase;
  phase.ops = ops;
  phase.ok.assign(ops.size(), 0);
  if (timed) {
    phase.lag_ns.assign(ops.size(), 0);
    phase.latency_ns.assign(ops.size(), 0);
  }
  if (link_spans) phase.store_span.assign(ops.size(), 0);
  return phase;
}

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

}  // namespace

Request Runner::MakeRequest(PhaseRecord& phase, size_t i) {
  const Op& op = phase.ops[i];
  const size_t slot = i % kRing;
  // A slot is reused only after the request 16384 ops earlier completed;
  // bounded shard queues make this wait practically never happen.
  while (busy_[slot].load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  busy_[slot].store(1, std::memory_order_relaxed);
  Request req;
  req.type = op.type;
  req.key = op.key;
  if (op.type == OpType::kRead) {
    req.out = values_.get() + slot * kValueSize;
  } else if (op.type == OpType::kScan) {
    scans_[slot].clear();
    req.scan_out = &scans_[slot];
    req.scan_len = op.scan_len;
  }
  // Writes carry no payload: the shard stores the key's synthetic value,
  // which is what every later read is checked against.
  const uint32_t index = static_cast<uint32_t>(i);
  req.done = [this, index](RequestStatus status) { Complete(index, status); };
  return req;
}

void Runner::Complete(uint32_t i, RequestStatus status) {
  const uint64_t now = pieces::NowNanos();
  PhaseRecord& phase = *phase_;
  const Op& op = phase.ops[i];
  const size_t slot = i % kRing;
  bool good = status == RequestStatus::kOk;
  if (good && op.type == OpType::kRead) {
    good = PayloadOk(op.key, values_.get() + slot * kValueSize);
  } else if (good && op.type == OpType::kScan) {
    good = ScanOk(*load_, op.key, op.scan_len, scans_[slot]);
  }
  if (link_spans_) phase.store_span[i] = trace::LastStoreSpan();
  if (!phase.latency_ns.empty()) phase.latency_ns[i] = Clamp32(now - phase.Due(i));
  phase.ok[i] = good ? 1 : 0;
  busy_[slot].store(0, std::memory_order_release);
}

PhaseRecord Runner::RunUnbounded(Target& target, std::span<const Op> ops) {
  PhaseRecord phase = NewPhase(ops, /*timed=*/false, link_spans_);
  phase_ = &phase;
  const uint64_t start = pieces::NowNanos();
  for (size_t i = 0; i < ops.size();) {
    std::vector<Request> batch;
    batch.reserve(kMaxCoalesce);
    for (; i < ops.size() && batch.size() < kMaxCoalesce; ++i) {
      batch.push_back(MakeRequest(phase, i));
    }
    target.Submit(std::move(batch));
  }
  target.Drain();
  const uint64_t end = pieces::NowNanos();
  phase.ops_per_s = static_cast<double>(ops.size()) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(1, end - start));
  phase_ = nullptr;
  return phase;
}

PhaseRecord Runner::RunPaced(Target& target, std::span<const Op> ops,
                             double ops_per_s,
                             const std::function<void()>& tick) {
  PhaseRecord phase = NewPhase(ops, /*timed=*/true, link_spans_);
  phase_ = &phase;
  phase.gap_ns = 1e9 / ops_per_s;
  phase.start = pieces::NowNanos() + 100'000;
  size_t i = 0;
  while (i < ops.size()) {
    const uint64_t now = pieces::NowNanos();
    if (now < phase.Due(i)) {
      if (tick) tick();
      continue;
    }
    std::vector<Request> batch;
    batch.reserve(kMaxCoalesce);
    for (; i < ops.size() && batch.size() < kMaxCoalesce &&
           phase.Due(i) <= now;
         ++i) {
      phase.lag_ns[i] = Clamp32(now - phase.Due(i));
      batch.push_back(MakeRequest(phase, i));
    }
    target.Submit(std::move(batch));
  }
  target.Drain();
  phase_ = nullptr;
  return phase;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

std::vector<double> LatenciesUs(std::span<const PhaseRecord> phases,
                                bool (*pick)(OpType)) {
  std::vector<double> out;
  for (const PhaseRecord& phase : phases) {
    for (size_t i = 0; i < phase.ops.size(); ++i) {
      if (!phase.ok[i] || !pick(phase.ops[i].type)) continue;
      out.push_back(phase.latency_ns[i] * 1e-3);
    }
  }
  return out;
}

double SegmentPercentileUs(std::span<const PhaseRecord> segments,
                           bool (*pick)(OpType), double q) {
  std::vector<double> per_segment;
  for (const PhaseRecord& segment : segments) {
    std::vector<double> lat = LatenciesUs({&segment, 1}, pick);
    if (!lat.empty()) per_segment.push_back(Percentile(lat, q));
  }
  return Percentile(per_segment, 0.25);
}

}  // namespace perfbench

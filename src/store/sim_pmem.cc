#include "store/sim_pmem.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/timer.h"

namespace pieces {

SimulatedPmem::SimulatedPmem(size_t capacity, uint64_t read_latency_ns,
                             uint64_t write_latency_ns)
    : capacity_(capacity),
      read_latency_ns_(read_latency_ns),
      write_latency_ns_(write_latency_ns),
      // calloc: zeroed so recovery scans over never-written slots see
      // invalid (all-zero) commit headers, and lazily committed so large
      // arenas stay cheap until touched.
      arena_(static_cast<uint8_t*>(std::calloc(capacity, 1))),
      crash_(capacity) {
  if (arena_ == nullptr) {
    std::fprintf(stderr, "SimulatedPmem: cannot allocate %zu-byte arena\n",
                 capacity);
    std::abort();
  }
}

SimulatedPmem::~SimulatedPmem() { std::free(arena_); }

uint8_t* SimulatedPmem::Allocate(size_t bytes) {
  crash_.CheckPowered();
  size_t aligned = (bytes + 7) & ~size_t{7};
  size_t offset = used_.fetch_add(aligned, std::memory_order_relaxed);
  if (offset + aligned > capacity_) {
    used_.fetch_sub(aligned, std::memory_order_relaxed);
    return nullptr;
  }
  return arena_ + offset;
}

void SimulatedPmem::Charge(uint64_t ns) const {
  if (ns == 0) return;
  uint64_t start = NowNanos();
  while (NowNanos() - start < ns) {
    // Busy-wait: models the synchronous stall of an NVM access.
  }
}

void SimulatedPmem::Read(const uint8_t* pmem_src, void* dst,
                         size_t bytes) const {
  uint8_t* out = static_cast<uint8_t*>(dst);
  ReadBatch(&pmem_src, &out, bytes, 1);
}

void SimulatedPmem::ReadBatch(const uint8_t* const* pmem_srcs,
                              uint8_t* const* dsts, size_t bytes_each,
                              size_t n) const {
  if (n == 0) return;
  crash_.CheckPowered();
  Charge(read_latency_ns_);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(dsts[i], pmem_srcs[i], bytes_each);
  }
  bytes_read_.fetch_add(bytes_each * n, std::memory_order_relaxed);
}

void SimulatedPmem::Write(uint8_t* pmem_dst, const void* src, size_t bytes) {
  Wrote(bytes);
  std::memcpy(pmem_dst, src, bytes);
}

void SimulatedPmem::Wrote(size_t bytes) {
  crash_.CheckPowered();
  Charge(write_latency_ns_);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
}

void SimulatedPmem::Persist(const uint8_t* pmem_addr, size_t bytes) {
  crash_.CheckPowered();
  Charge(write_latency_ns_);
  persist_count_.fetch_add(1, std::memory_order_relaxed);
  crash_.Persisted(arena_, static_cast<size_t>(pmem_addr - arena_), bytes,
                   used_.load(std::memory_order_relaxed));
}

}  // namespace pieces

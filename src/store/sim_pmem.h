// Simulated persistent memory: a DRAM arena with optional injected
// read/write latency, access accounting, and an enforced persistence
// domain. Substitutes for the paper's Intel Optane DCPMM (see DESIGN.md):
// the end-to-end question is how much a slower persistence medium drags
// each index, and injecting per-access latency reproduces that drag
// uniformly. With latencies at 0 (default) it behaves as plain DRAM,
// which keeps unit tests fast.
//
// Persistence is a contract, not bookkeeping: written bytes become
// durable only when a Persist() barrier covers them (the CrashController
// shadows the arena with a durable image). crash().Crash() — or an armed
// crash point firing — rolls the arena back to that image, so recovery
// code can only ever see what it actually persisted. See
// crash_controller.h for what the simulation does and does not model.
#ifndef PIECES_STORE_SIM_PMEM_H_
#define PIECES_STORE_SIM_PMEM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/crash_controller.h"

namespace pieces {

class SimulatedPmem {
 public:
  // `capacity` bytes; latencies in nanoseconds per access (not per byte).
  SimulatedPmem(size_t capacity, uint64_t read_latency_ns = 0,
                uint64_t write_latency_ns = 0);
  ~SimulatedPmem();

  SimulatedPmem(const SimulatedPmem&) = delete;
  SimulatedPmem& operator=(const SimulatedPmem&) = delete;

  // Bump allocation (8-byte aligned). Returns nullptr when exhausted.
  uint8_t* Allocate(size_t bytes);

  // Latency-charged access. `dst`/`src` are normal DRAM buffers.
  // Every accessor throws SimulatedCrash while the device is crashed and
  // not yet recovered (power is off).
  void Read(const uint8_t* pmem_src, void* dst, size_t bytes) const;
  // Batched read of `n` equally-sized records: all bytes are accounted,
  // but the injected read latency is charged once for the whole batch —
  // a batch of independent loads overlaps its misses in the memory
  // subsystem, so the stalls do not add up the way sequential dependent
  // reads do.
  void ReadBatch(const uint8_t* const* pmem_srcs, uint8_t* const* dsts,
                 size_t bytes_each, size_t n) const;
  void Write(uint8_t* pmem_dst, const void* src, size_t bytes);
  // Accounts a store of `bytes` made in place through an arena pointer (a
  // store seals records in their slots): charged and counted like Write.
  void Wrote(size_t bytes);
  // Persistence barrier (clwb + fence) over [pmem_addr, pmem_addr+bytes):
  // counted, charged the write latency once, and — the contract — the
  // covered bytes are committed to the durable image.
  void Persist(const uint8_t* pmem_addr, size_t bytes);

  // Quiescent-point power failure: every written-but-unpersisted byte is
  // discarded. The device then refuses accesses until crash().ClearCrash()
  // (recovery code calls it first).
  void Crash() { crash_.Crash(arena_, used_.load(std::memory_order_relaxed)); }

  CrashController& crash() { return crash_; }
  const CrashController& crash() const { return crash_; }

  // Address of a byte offset inside the arena — recovery code re-derives
  // page addresses from durable state (offsets) instead of trusting a
  // volatile pointer table.
  uint8_t* AddressAt(size_t offset) const { return arena_ + offset; }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t bytes_read() const { return bytes_read_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t persist_count() const { return persist_count_.load(); }

 private:
  void Charge(uint64_t ns) const;

  size_t capacity_;
  uint64_t read_latency_ns_;
  uint64_t write_latency_ns_;
  uint8_t* arena_;  // calloc'd: zeroed, lazily committed
  std::atomic<size_t> used_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> persist_count_{0};
  mutable CrashController crash_;
};

}  // namespace pieces

#endif  // PIECES_STORE_SIM_PMEM_H_

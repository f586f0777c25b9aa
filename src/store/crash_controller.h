// Crash semantics for the simulated persistence domain. SimulatedPmem on
// its own only *counts* persist barriers; the CrashController makes them
// an enforced contract by shadowing the arena with a "durable image" that
// receives bytes exclusively at Persist() barriers. A crash — either a
// programmed one (FailAfterPersists) or an explicit quiescent-point
// Crash() — rolls the arena back to that image, dropping every written-
// but-unpersisted byte exactly the way a power failure drops the contents
// of the CPU caches and the in-flight WPQ entries of a real PMem DIMM.
//
// Torn writes: a real 256-byte PMem write is not failure-atomic beyond
// its 8-byte units. FailAfterPersists(n, tear_bytes) models this by
// letting the Nth barrier fail *mid-flush*: only the first `tear_bytes`
// of the granule reach the durable image before power is lost.
//
// What is deliberately NOT modelled: store reordering below barrier
// granularity (bytes covered by one Persist are committed as a prefix,
// not an arbitrary subset) and allocator-metadata loss (the arena extent,
// i.e. SimulatedPmem::used(), survives a crash the way a file's size
// survives — recovery code may derive the page directory from it but must
// not trust any byte of page *content* that was never persisted).
#ifndef PIECES_STORE_CRASH_CONTROLLER_H_
#define PIECES_STORE_CRASH_CONTROLLER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pieces {

// Thrown from SimulatedPmem at an armed crash point, and on any write-side
// access to a crashed, not-yet-recovered device. Deliberately carries no
// state: a power failure does not explain itself.
struct SimulatedCrash {};

class CrashController {
 public:
  // tear_bytes sentinel: the armed barrier commits nothing at all (the
  // crash strikes as the flush begins).
  static constexpr int64_t kNoTear = -1;

  explicit CrashController(size_t capacity);
  ~CrashController();

  CrashController(const CrashController&) = delete;
  CrashController& operator=(const CrashController&) = delete;

  // ---- Test-facing programming interface ----------------------------

  // Arms a deterministic crash point: the Nth subsequent persist barrier
  // (n >= 1; 0 disarms, as PageStore::FailAfterSyncs) fails. With
  // tear_bytes == kNoTear the barrier commits nothing; with tear_bytes >=
  // 0, exactly min(tear_bytes, granule) bytes of the in-flight granule
  // become durable before the crash — a torn write. Arming replaces any
  // previously armed point.
  void FailAfterPersists(uint64_t n, int64_t tear_bytes = kNoTear);

  bool crashed() const {
    return crashed_.load(std::memory_order_relaxed);
  }
  // Power back on. The arena holds whatever Crash() restored (the durable
  // image); recovery code runs after this.
  void ClearCrash() { crashed_.store(false, std::memory_order_relaxed); }
  uint64_t crash_count() const { return crash_count_.load(); }

  // ---- SimulatedPmem-facing interface -------------------------------

  // Throws while the device is "powered off" (crashed and not recovered).
  void CheckPowered() const {
    if (crashed()) throw SimulatedCrash{};
  }

  // A persist barrier over arena[offset, offset+bytes): commit the range
  // to the durable image. If this is the armed barrier, commit only the
  // torn prefix, restore the arena from the durable image, and throw
  // SimulatedCrash.
  void Persisted(uint8_t* arena, size_t offset, size_t bytes, size_t used);

  // Quiescent-point power failure: restore arena[0, used) from the
  // durable image and mark the device crashed (no throw — the caller is
  // the "operator", not the victim).
  void Crash(uint8_t* arena, size_t used);

 private:
  size_t capacity_;
  uint8_t* durable_;  // calloc'd: zero until persisted, lazily committed
  // Remaining barriers until the armed crash; <= 0 means disarmed.
  std::atomic<int64_t> persists_until_crash_{0};
  int64_t tear_bytes_ = kNoTear;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> crash_count_{0};
};

}  // namespace pieces

#endif  // PIECES_STORE_CRASH_CONTROLLER_H_

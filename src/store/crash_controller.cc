#include "store/crash_controller.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pieces {

CrashController::CrashController(size_t capacity)
    : capacity_(capacity),
      durable_(static_cast<uint8_t*>(std::calloc(capacity, 1))) {
  if (durable_ == nullptr) {
    std::fprintf(stderr,
                 "CrashController: cannot allocate %zu-byte durable image\n",
                 capacity);
    std::abort();
  }
}

CrashController::~CrashController() { std::free(durable_); }

void CrashController::FailAfterPersists(uint64_t n, int64_t tear_bytes) {
  tear_bytes_ = tear_bytes;
  persists_until_crash_.store(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
}

void CrashController::Persisted(uint8_t* arena, size_t offset, size_t bytes,
                                size_t used) {
  if (offset >= capacity_) return;
  if (bytes > capacity_ - offset) bytes = capacity_ - offset;
  int64_t left = persists_until_crash_.load(std::memory_order_relaxed);
  bool fire = left > 0 &&
              persists_until_crash_.fetch_sub(1, std::memory_order_relaxed) ==
                  1;
  if (!fire) {
    std::memcpy(durable_ + offset, arena + offset, bytes);
    return;
  }
  // The armed barrier fails mid-flush: only the torn prefix (possibly
  // empty) reaches the durable image, then power is lost.
  size_t keep = tear_bytes_ == kNoTear
                    ? 0
                    : std::min(static_cast<size_t>(tear_bytes_), bytes);
  if (keep > 0) std::memcpy(durable_ + offset, arena + offset, keep);
  Crash(arena, used);
  throw SimulatedCrash{};
}

void CrashController::Crash(uint8_t* arena, size_t used) {
  size_t n = used < capacity_ ? used : capacity_;
  std::memcpy(arena, durable_, n);
  persists_until_crash_.store(0, std::memory_order_relaxed);
  crashed_.store(true, std::memory_order_relaxed);
  crash_count_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pieces

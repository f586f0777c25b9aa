// PageStore: fixed-size pages in a regular file (pread/pwrite), the
// block-device tier under DiskStore. Durability follows the same contract
// SimulatedPmem enforces for byte-addressable media, translated to files:
// a WritePage lands in the OS page cache and is *not* durable until a
// Sync() barrier (fdatasync) covers it. The crash machinery mirrors
// crash_controller.h so the PR 5 fault-injection methodology carries over
// unchanged to the disk tier:
//
//  * every page dirtied since the last barrier keeps a shadow of its
//    durable (pre-write) image; Crash() rolls those pages back, dropping
//    written-but-unsynced bytes exactly the way a power failure drops the
//    contents of the OS page cache. A page no write has ever reached has
//    an all-zero durable image (the file is truncated on open and
//    extended with zeros), so its shadow is a zero marker, not a 4 KiB
//    copy: a bulk load pending under one barrier holds no copy of the
//    pages it fills;
//  * FailAfterSyncs(n, tear_bytes) arms the Nth barrier to fail
//    *mid-flush*: pending page writes commit in first-write order until
//    `tear_bytes` are consumed (a page may commit a strict prefix — a
//    torn write), the rest roll back, and the store throws SimulatedCrash
//    and refuses access until ClearCrash() (recovery calls it first).
//
// What is deliberately NOT modelled: filesystem metadata loss (the file's
// length survives a crash — recovery may derive the page count from it
// but must not trust any unsynced page *content*) and sector-granularity
// reordering below one WritePage (a torn page commits a prefix, not an
// arbitrary subset of sectors).
#ifndef PIECES_STORE_PAGE_STORE_H_
#define PIECES_STORE_PAGE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/crash_controller.h"  // SimulatedCrash, kNoTear sentinel

namespace pieces {

class PageStore {
 public:
  static constexpr int64_t kNoTear = CrashController::kNoTear;
  static constexpr uint32_t kInvalidPage = 0xffffffffu;

  struct Options {
    size_t page_size = 4096;
    // Capacity guard: AllocatePage fails past this many pages.
    size_t max_pages = size_t{1} << 20;
    // Remove the backing file on destruction (bench/test hygiene; the
    // --data-dir cleanup contract relies on this).
    bool unlink_on_close = true;
  };

  // Opens (creating + truncating) `path`. On failure ok() is false and
  // error() holds a human-readable reason; every other call is then
  // invalid.
  PageStore(std::string path, const Options& opts);
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  // Extends the file by one (logical) page; returns its id, or
  // kInvalidPage when max_pages is reached. The page reads as zeros until
  // written. Like a file's length, the allocated extent survives a crash.
  uint32_t AllocatePage();

  // Reads the page into `out` (page_size bytes); never-written extents
  // read as zeros. Throws SimulatedCrash while the device is crashed.
  void ReadPage(uint32_t page, uint8_t* out) const;

  // Writes the whole page (page_size bytes). Not durable until the next
  // Sync() barrier covers it.
  void WritePage(uint32_t page, const uint8_t* data);

  // Durability barrier (fdatasync): every write since the previous
  // barrier becomes durable. Counted; fires the armed crash point.
  void Sync();

  // ---- Crash-injection programming interface (tests/benches) --------

  // Arms a deterministic crash point: the Nth subsequent Sync (n >= 1;
  // 0 disarms) fails. With tear_bytes == kNoTear the barrier commits
  // nothing; with tear_bytes >= 0, pending page writes commit in
  // first-write order until exactly that many bytes are durable (the
  // boundary page commits a strict prefix — a torn write). Arming replaces
  // any previous point.
  void FailAfterSyncs(uint64_t n, int64_t tear_bytes = kNoTear);

  // Quiescent-point power failure: every written-but-unsynced page rolls
  // back to its durable image and the device refuses access until
  // ClearCrash().
  void Crash();
  void ClearCrash() { crashed_.store(false, std::memory_order_relaxed); }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  size_t page_size() const { return opts_.page_size; }
  size_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  // The raw descriptor, for the IoEngine read path (store/io_engine.h):
  // engine fetches pread the file directly, without mu_ — safe because
  // the buffer pool only fetches non-resident pages, and every page with
  // writes in flight is resident and pinned. Engines report fetched
  // pages back through NotePagesRead so pages_read() stays the single
  // physical-read counter.
  int fd() const { return fd_; }
  void NotePagesRead(uint64_t n) const {
    pages_read_.fetch_add(n, std::memory_order_relaxed);
  }
  // Test hook: stretches every Sync by `micros` inside the device (the
  // slow-fsync injection the reader-vs-barrier regression test races
  // against).
  void SetSyncDelayForTest(uint64_t micros) {
    sync_delay_us_.store(micros, std::memory_order_relaxed);
  }
  uint64_t pages_read() const { return pages_read_.load(); }
  uint64_t pages_written() const { return pages_written_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  void CheckPowered() const {
    if (crashed()) throw SimulatedCrash{};
  }
  // Rolls every pending page back to its shadow. Caller holds mu_.
  void RestorePendingLocked();
  // The bytes a shadow stands for: its copy, or zero_page_ when empty.
  const uint8_t* DurableImage(const std::vector<uint8_t>& shadow) const {
    return shadow.empty() ? zero_page_.data() : shadow.data();
  }
  void PwriteOrDie(uint32_t page, const uint8_t* data);

  Options opts_;
  std::string path_;
  std::string error_;
  int fd_ = -1;
  std::atomic<size_t> num_pages_{0};

  // Guards the file and the unsynced-write tracking below.
  mutable std::mutex mu_;
  // Pages dirtied since the last barrier, in first-write order, each with
  // the durable image it would roll back to; an empty image stands for
  // zero_page_ (the page had never been written).
  std::vector<uint32_t> pending_order_;
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow_;
  // Per allocated page: whether any WritePage has ever reached it.
  std::vector<bool> written_;
  const std::vector<uint8_t> zero_page_;

  // Remaining barriers until the armed crash; <= 0 means disarmed.
  std::atomic<int64_t> syncs_until_crash_{0};
  std::atomic<uint64_t> sync_delay_us_{0};
  int64_t tear_bytes_ = kNoTear;
  std::atomic<bool> crashed_{false};

  mutable std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace pieces

#endif  // PIECES_STORE_PAGE_STORE_H_

// DiskStore: the disk-resident StoreBackend — records in fixed-size
// pages in a regular file (store/page_store.h) behind a CLOCK buffer
// pool (store/buffer_pool.h), with the index (models + fence keys) fully
// in DRAM mapping each key to a (page, slot) handle. This opens the
// larger-than-memory regime the paper's 200M–800M-key configurations
// imply: the dataset lives on the block device, the pool caches a
// configurable fraction of it, and the interesting cost model becomes
// *page fetches per lookup vs model precision* (disk_tier experiment).
//
// This is the disk medium of SlottedStore (store/slotted_store.h): the
// record format, the commit sequence, bulk load (one fdatasync per load),
// page-grouped GetBatch and recovery are the PMem store's, verbatim. What
// stays here is what the disk does differently: a page is a pool frame
// reached by pin/unpin (a fresh page is pinned without a fetch); a barrier
// is a write-back of the touched frames plus one fdatasync, and a put's
// barriers run with the writer and pool mutexes released, so readers of
// resident pages never wait on the device; batch reads fetch a tile's
// missing pages in one IoEngine batch (store/io_engine.h), and — when
// `readahead_max_pages` > 0 and the index has a bounded model — Get pins
// the predicted-rank page span (slot ± err) in one burst instead of
// faulting pages one by one.
//
// Writers always go through the commit queue: a leader commits up to
// `group_commit_ops` queued puts under one fdatasync pair (1 = every put
// pays its own two barriers), so per-member invariants —
// header-after-payload-durable, revoke-on-failed-swing, seqno order =
// queue order — hold at every grouped barrier.
#ifndef PIECES_STORE_DISK_STORE_H_
#define PIECES_STORE_DISK_STORE_H_

#include <memory>
#include <string>

#include "store/buffer_pool.h"
#include "store/page_store.h"
#include "store/slotted_store.h"

namespace pieces {

class DiskStore : public SlottedStore {
 public:
  struct Config {
    size_t value_size = 200;   // The paper's 200-byte values.
    size_t page_size = 4096;   // Block-device page granularity.
    // Buffer-pool capacity in frames. The disk_tier experiment sweeps
    // this as a fraction of the dataset's page count.
    size_t pool_pages = 256;
    size_t file_capacity = size_t{1} << 30;
    // Backing file path (required). The file is created/truncated.
    std::string path;
    // Remove the backing file on destruction (--data-dir cleanup).
    bool unlink_on_close = true;
    // Fetch backend: "serial" | "threads" | "uring" | "auto"; empty
    // reads PIECES_IO_ENGINE, then "auto" (uring when the kernel has
    // it, else the thread pool). See store/io_engine.h.
    std::string io_engine;
    // Error-bound readahead: cap (in pages) on the predicted span a
    // lookup pins in one burst. 0 disables — every Get faults exactly
    // its target page, the PR 8 behavior.
    size_t readahead_max_pages = 0;
    // Group commit: max puts per fdatasync pair. 1 disables (every put
    // pays its own two barriers, the PR 8 behavior); > 1 lets
    // concurrent writers share a leader-issued barrier pair.
    size_t group_commit_ops = 1;
    // How long a leader waits for joiners before committing a partial
    // group. Bounds the latency cost of grouping at low concurrency.
    size_t group_commit_delay_us = 100;
  };

  DiskStore(std::unique_ptr<OrderedIndex> index, const Config& config);

  // False when the backing file could not be opened (e.g. the data
  // directory is unwritable); error() says why. All other calls are
  // invalid until ok().
  bool ok() const { return pages_.ok() && slots_per_page() > 0; }
  const std::string& error() const { return error_; }

  void Crash() override { pages_.Crash(); }
  void FailAfterBarriers(uint64_t n, int64_t tear_bytes) override {
    pages_.FailAfterSyncs(n, tear_bytes);
  }
  std::string_view BackendName() const override { return "disk"; }
  StoreIoStats IoStats() const override;

  // Test hooks: the file's counters and the slow-fsync injection.
  PageStore& mutable_pages() { return pages_; }
  const PageStore& pages() const { return pages_; }
  // The fetch backend actually in use ("serial" / "threads" / "uring").
  std::string_view io_engine_name() const { return pool_.engine().name(); }

 protected:
  uint32_t AllocatePage() override { return pages_.AllocatePage(); }
  size_t PageCount() const override { return pages_.num_pages(); }
  uint8_t* PinWrite(uint32_t page, bool fresh) override {
    return fresh ? pool_.PinNew(page) : pool_.Pin(page);
  }
  void Unpin(uint32_t page) override { pool_.Unpin(page, /*dirty=*/false); }
  void Wrote(size_t) override {}
  void WriteBack(uint32_t page) override { pool_.WriteBack(page); }
  void Barrier(const uint8_t*, const uint8_t*) override { pages_.Sync(); }
  void ReadValue(Key key, Value handle, uint8_t* out) const override;
  void ReadValues(const SlotRead* reads, size_t n) const override;
  const uint8_t* ReadPage(uint32_t page, uint8_t* scratch) const override {
    // Straight off the file: recovery is one pass and would only
    // evict-thrash the pool.
    pages_.ReadPage(page, scratch);
    return scratch;
  }
  bool crashed() const override { return pages_.crashed(); }
  void PowerOn() override {
    // The crash rolled the file back under the pool, and may have unwound
    // a writer mid-pin: drop every cached frame.
    pages_.ClearCrash();
    pool_.Reset();
  }

 private:
  // Pin that spins out transient all-frames-pinned states (and rare
  // device read errors, which are outside the simulated fault model);
  // on a miss the pool brings the readahead span [ra_lo, ra_hi) resident
  // in the same engine batch.
  const uint8_t* PinWait(uint32_t page, uint32_t ra_lo = 0,
                         uint32_t ra_hi = 0) const;
  // The model's predicted page span for `key` around its target page,
  // clamped to the file and capped at readahead_max_pages; just the
  // target when readahead is off or the model has no error bound.
  void ReadaheadSpan(Key key, uint32_t target, uint32_t* ra_lo,
                     uint32_t* ra_hi) const;

  Config config_;
  std::string error_;
  PageStore pages_;
  mutable BufferPool pool_;
};

}  // namespace pieces

#endif  // PIECES_STORE_DISK_STORE_H_

#include "store/disk_store.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace pieces {

static_assert(PageStore::kInvalidPage == SlottedStore::kNoPage);

DiskStore::DiskStore(std::unique_ptr<OrderedIndex> index, const Config& config)
    // The handle packs the slot into 16 bits.
    : SlottedStore(std::move(index), config.value_size,
                   std::min<size_t>(config.page_size /
                                        (sizeof(Key) + config.value_size +
                                         sizeof(RecordHeader)),
                                    0xffff),
                   config.page_size,
                   std::max<size_t>(1, config.group_commit_ops),
                   config.group_commit_delay_us),
      config_(config),
      pages_(config.path,
             PageStore::Options{
                 .page_size = config.page_size,
                 .max_pages = std::max<size_t>(
                     1, config.file_capacity / std::max<size_t>(
                                                   1, config.page_size)),
                 .unlink_on_close = config.unlink_on_close}),
      pool_(&pages_, std::max<size_t>(1, config.pool_pages),
            config.io_engine) {
  if (!pages_.ok()) {
    error_ = pages_.error();
  } else if (slots_per_page() == 0) {
    error_ = "DiskStore: page_size too small for one record";
  }
}

const uint8_t* DiskStore::PinWait(uint32_t page, uint32_t ra_lo,
                                  uint32_t ra_hi) const {
  // nullptr means every frame is transiently pinned by other callers
  // (each caller holds at most one pin at a time, so backing off
  // resolves it) or — outside the simulated fault model — a device read
  // error; both are retried.
  uint8_t* frame;
  while ((frame = pool_.PinSpan(page, ra_lo, ra_hi)) == nullptr) {
    std::this_thread::yield();
  }
  return frame;
}

void DiskStore::ReadaheadSpan(Key key, uint32_t target, uint32_t* ra_lo,
                              uint32_t* ra_hi) const {
  *ra_lo = target;
  *ra_hi = target + 1;
  size_t rank_lo;
  size_t rank_hi;
  if (config_.readahead_max_pages == 0 ||
      !index().PredictRank(key, &rank_lo, &rank_hi)) {
    return;
  }
  // Rank -> page holds for bulk-load order (slots are claimed in key
  // order); post-load appends land elsewhere and simply miss the span —
  // the waste shows up in readahead_wasted, not in correctness.
  const size_t slots = slots_per_page();
  uint32_t lo = static_cast<uint32_t>(rank_lo / slots);
  uint32_t hi = static_cast<uint32_t>((rank_hi + slots - 1) / slots);
  lo = std::min(lo, target);
  hi = std::max(hi, target + 1);
  hi = std::min<uint32_t>(hi, static_cast<uint32_t>(pages_.num_pages()));
  if (hi <= target) hi = target + 1;
  const uint32_t cap = static_cast<uint32_t>(config_.readahead_max_pages);
  if (hi - lo > cap) {
    // Too wide for the knob: keep a cap-sized window around the target.
    const uint32_t before = std::min(target - lo, (cap - 1) / 2);
    lo = target - before;
    hi = std::min(hi, lo + cap);
  }
  *ra_lo = lo;
  *ra_hi = hi;
}

void DiskStore::ReadValue(Key key, Value handle, uint8_t* out) const {
  // Error-bound readahead: the model's predicted span is every page this
  // lookup (and its neighborhood) can touch — pin the target and bring the
  // span resident in one overlapped engine batch.
  const uint32_t page = HandlePage(handle);
  uint32_t ra_lo;
  uint32_t ra_hi;
  ReadaheadSpan(key, page, &ra_lo, &ra_hi);
  const uint8_t* frame = PinWait(page, ra_lo, ra_hi);
  std::memcpy(out, frame + ValueOffset(handle), value_size());
  pool_.Unpin(page, /*dirty=*/false);
}

void DiskStore::ReadValues(const SlotRead* reads, size_t n) const {
  // Submit the distinct pages as ONE engine batch: the pool fetches every
  // missing page overlapped (best-effort) before the loop below pins each
  // page once for all of its reads.
  uint32_t pages[kReadTile];
  size_t np = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t page = HandlePage(reads[i].handle);
    if (np == 0 || pages[np - 1] != page) pages[np++] = page;
  }
  if (np > 1) pool_.Prefetch(std::span<const uint32_t>(pages, np));
  for (size_t i = 0; i < n;) {
    const uint32_t page = HandlePage(reads[i].handle);
    const uint8_t* frame = PinWait(page);
    for (; i < n && HandlePage(reads[i].handle) == page; ++i) {
      std::memcpy(reads[i].dst, frame + ValueOffset(reads[i].handle),
                  value_size());
    }
    pool_.Unpin(page, /*dirty=*/false);
  }
}

StoreIoStats DiskStore::IoStats() const {
  StoreIoStats stats;
  stats.bytes_read = pages_.pages_read() * config_.page_size;
  stats.bytes_written = pages_.pages_written() * config_.page_size;
  stats.barriers = pages_.syncs();
  // Serving-path physical fetches = pool misses (recovery's direct page
  // scan bypasses the pool and is excluded on purpose).
  stats.page_fetches = pool_.misses();
  stats.pool_hits = pool_.hits();
  stats.pool_misses = pool_.misses();
  stats.pool_evictions = pool_.evictions();
  stats.pool_writebacks = pool_.writebacks();
  stats.pool_all_pinned = pool_.all_pinned();
  stats.pool_dedup_waits = pool_.dedup_waits();
  stats.io_errors = pool_.io_errors();
  const IoEngine::Stats engine = pool_.engine().stats();
  stats.io_batches = engine.batches;
  stats.io_waits = engine.waits;
  stats.io_max_inflight = engine.max_inflight;
  stats.readahead_pages = pool_.readahead_pages();
  stats.readahead_hits = pool_.readahead_hits();
  stats.readahead_wasted = pool_.readahead_wasted();
  stats.group_commits = group_commits_.load(std::memory_order_relaxed);
  stats.grouped_puts = grouped_puts_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pieces

// ViperStore: a Viper-style hybrid KV store (Benson et al., VLDB'21) — the
// paper's "fair comparison environment" (Fig. 9). Key/value records live in
// fixed-slot value pages on (simulated) persistent memory; a *volatile*
// index in DRAM maps each key to its (page, slot) handle. Every index in
// this repo plugs in through the OrderedIndex interface, so end-to-end
// benches exercise identical code paths around the index under test.
//
// Durability follows Viper's per-record commit metadata: each slot is
// [key | value | RecordHeader], and the header (monotonic seqno + CRC32C
// over key+value + commit magic) is persisted *after* the payload. A slot
// counts as durable only when its header validates, so recovery after a
// crash (see crash_controller.h) reconstructs exactly the
// acknowledged-durable prefix: torn or uncommitted slots are skipped and
// duplicate keys resolve to the highest seqno.
//
// Recovery (Fig. 16) rebuilds the DRAM index by scanning the PMem pages:
// collect committed (key, handle) pairs, sort, bulk-load — its cost is
// dominated by the index's build time, which is what the paper measures.
#ifndef PIECES_STORE_VIPER_H_
#define PIECES_STORE_VIPER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "index/ordered_index.h"
#include "store/record_format.h"
#include "store/sim_pmem.h"
#include "store/store_backend.h"

namespace pieces {

class ViperStore : public StoreBackend {
 public:
  struct Config {
    size_t value_size = 200;     // The paper's 200-byte values.
    size_t slots_per_page = 64;  // Viper's VPage granularity.
    size_t pmem_capacity = size_t{1} << 30;
    uint64_t read_latency_ns = 0;
    uint64_t write_latency_ns = 0;
  };

  ViperStore(std::unique_ptr<OrderedIndex> index, const Config& config);

  ViperStore(const ViperStore&) = delete;
  ViperStore& operator=(const ViperStore&) = delete;

  // Bulk-loads `keys` with synthetic values derived from each key, one
  // batched persist barrier per filled page. Returns false when PMem
  // capacity is exceeded.
  bool BulkLoad(const std::vector<Key>& keys) override;

  // Bulk-load with caller-provided values: `fill` writes value_size bytes
  // for each key into the supplied buffer. This is the live-migration
  // path — a shard split hands its records to the replacement stores with
  // the *stored* values (which may not be synthetic) preserved.
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override;

  // The deterministic value PutSynthetic/BulkLoad store for `key`, exposed
  // so tests and oracles can verify read payloads byte-for-byte.
  static void FillSyntheticValue(Key key, uint8_t* buf, size_t value_size);

  // Inserts or updates. `value` must be exactly value_size bytes.
  // Durability order: payload persist, then header persist, then the
  // index swing, then the acknowledgement — so a true return means the
  // record survives any later crash, and a false return means recovery
  // will never resurrect it (a failed index swing revokes the slot's
  // commit header before returning).
  bool Put(Key key, const uint8_t* value) override;
  // Convenience: writes a synthetic value derived from `key`.
  bool PutSynthetic(Key key) override;

  // Reads the value into `out` (value_size bytes). False when absent.
  bool Get(Key key, uint8_t* out) const override;

  // Batched point reads: outs[i] receives value_size bytes when found[i]
  // is true. Handles resolve through the index's batch path, the value
  // slots are prefetched before copying, and the injected PMem read
  // latency is charged once per batch (overlapped misses). Returns the
  // number found; results are identical to keys.size() Get calls.
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override;

  // Ordered scan of up to `count` records starting at `from`; values are
  // read (charged) but only keys are returned.
  size_t Scan(Key from, size_t count,
              std::vector<Key>* out_keys) const override;

  // Simulated power failure at a quiescent point: every written-but-
  // unpersisted byte is dropped. The store must Recover() before serving
  // again (any access in between throws SimulatedCrash).
  void Crash() override { pmem_.Crash(); }

  // Drops the DRAM index and rebuilds it from the PMem pages, trusting
  // only slots whose commit header validates (seqno != 0, magic, CRC) and
  // resolving duplicate keys by highest seqno. Re-derives the page
  // directory and the next seqno from durable state, so it is exactly as
  // good after a crash as after a clean shutdown, and idempotent.
  // Returns the rebuild wall time in nanoseconds.
  uint64_t Recover() override;

  const OrderedIndex& index() const override { return *index_; }
  OrderedIndex* mutable_index() override { return index_.get(); }
  const SimulatedPmem& pmem() const { return pmem_; }
  SimulatedPmem& mutable_pmem() { return pmem_; }
  size_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }
  size_t value_size() const override { return config_.value_size; }
  std::string_view BackendName() const override { return "viper"; }
  StoreIoStats IoStats() const override {
    StoreIoStats stats;
    stats.bytes_read = pmem_.bytes_read();
    stats.bytes_written = pmem_.bytes_written();
    stats.barriers = pmem_.persist_count();
    return stats;  // Byte-addressable: no pages, no pool.
  }
  // Bytes of one on-PMem record: key + value + commit header.
  size_t record_bytes() const { return RecordBytes(); }

  // Table III columns.
  size_t IndexStructureBytes() const { return index_->IndexSizeBytes(); }
  size_t IndexPlusKeyBytes() const { return index_->TotalSizeBytes(); }
  size_t IndexPlusKvBytes() const {
    return index_->TotalSizeBytes() + pmem_.used();
  }

 private:
  struct PageRef {
    uint8_t* base;
  };

  static Value PackHandle(uint32_t page, uint32_t slot) {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static uint32_t HandlePage(Value v) {
    return static_cast<uint32_t>(v >> 16);
  }
  static uint32_t HandleSlot(Value v) {
    return static_cast<uint32_t>(v & 0xffff);
  }

  size_t PayloadBytes() const { return sizeof(Key) + config_.value_size; }
  size_t RecordBytes() const { return PayloadBytes() + sizeof(RecordHeader); }
  // One page's allocation size (Allocate rounds to 8 bytes).
  size_t PageBytes() const {
    return (RecordBytes() * config_.slots_per_page + 7) & ~size_t{7};
  }
  uint8_t* SlotAddr(uint32_t page, uint32_t slot) const {
    return pages_[page].base + slot * RecordBytes();
  }
  // Claims a fresh slot, allocating a page if needed; returns false on
  // PMem exhaustion.
  bool ClaimSlot(uint32_t* page, uint32_t* slot);
  void FillSynthetic(Key key, uint8_t* buf) const;

  Config config_;
  SimulatedPmem pmem_;
  std::unique_ptr<OrderedIndex> index_;
  std::vector<PageRef> pages_;
  mutable std::mutex pages_mutex_;
  std::atomic<uint32_t> next_slot_{0};  // Slot within the last page.
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> next_seqno_{1};
};

}  // namespace pieces

#endif  // PIECES_STORE_VIPER_H_

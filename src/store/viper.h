// ViperStore: a Viper-style hybrid KV store (Benson et al., VLDB'21) — the
// paper's "fair comparison environment" (Fig. 9). Key/value records live in
// fixed-slot value pages on (simulated) persistent memory; a *volatile*
// index in DRAM maps each key to its (page, slot) handle. Every index in
// this repo plugs in through the OrderedIndex interface, so end-to-end
// benches exercise identical code paths around the index under test.
//
// This is the PMem medium of SlottedStore (store/slotted_store.h), which
// owns the record format, the commit sequence, bulk load, the batched read
// path and recovery for both media. What stays here is what PMem does
// differently: pages are consecutive page_bytes() runs of one bump-
// allocated arena (so a page's address is arithmetic, and the page count
// after a crash is the arena's used extent); a barrier is a Persist fence
// over exactly the written range (crash_controller.h enforces it); reads
// copy straight out of the arena, a batch charging the injected read
// latency once (overlapped misses); and every put commits inline on its
// caller's thread as a group of one — the only lock it takes is the slot
// claim's, so concurrent writers never wait on each other's barriers.
//
// Recovery (Fig. 16) rebuilds the DRAM index by scanning the PMem pages:
// collect committed (key, handle) pairs, sort, bulk-load — its cost is
// dominated by the index's build time, which is what the paper measures.
#ifndef PIECES_STORE_VIPER_H_
#define PIECES_STORE_VIPER_H_

#include <memory>

#include "index/ordered_index.h"
#include "store/sim_pmem.h"
#include "store/slotted_store.h"

namespace pieces {

class ViperStore : public SlottedStore {
 public:
  struct Config {
    size_t value_size = 200;     // The paper's 200-byte values.
    size_t slots_per_page = 64;  // Viper's VPage granularity.
    size_t pmem_capacity = size_t{1} << 30;
    uint64_t read_latency_ns = 0;
    uint64_t write_latency_ns = 0;
  };

  ViperStore(std::unique_ptr<OrderedIndex> index, const Config& config);

  // The deterministic value PutSynthetic/BulkLoad store for `key`, exposed
  // so tests and oracles can verify read payloads byte-for-byte.
  static void FillSyntheticValue(Key key, uint8_t* buf, size_t value_size) {
    FillSyntheticRecordValue(key, buf, value_size);
  }

  // Quiescent-point power failure: every written-but-unpersisted byte is
  // dropped. The store must Recover() before serving again.
  void Crash() override { pmem_.Crash(); }
  void FailAfterBarriers(uint64_t n, int64_t tear_bytes) override {
    pmem_.crash().FailAfterPersists(n, tear_bytes);
  }
  std::string_view BackendName() const override { return "viper"; }
  StoreIoStats IoStats() const override {
    StoreIoStats stats;
    stats.bytes_read = pmem_.bytes_read();
    stats.bytes_written = pmem_.bytes_written();
    stats.barriers = pmem_.persist_count();
    return stats;  // Byte-addressable: no pages, no pool.
  }

  const SimulatedPmem& pmem() const { return pmem_; }
  SimulatedPmem& mutable_pmem() { return pmem_; }

  // Table III columns.
  size_t IndexStructureBytes() const { return index().IndexSizeBytes(); }
  size_t IndexPlusKeyBytes() const { return index().TotalSizeBytes(); }
  size_t IndexPlusKvBytes() const {
    return index().TotalSizeBytes() + pmem_.used();
  }

 protected:
  uint32_t AllocatePage() override;
  size_t PageCount() const override { return pmem_.used() / page_bytes(); }
  uint8_t* PinWrite(uint32_t page, bool) override { return PageAt(page); }
  void Unpin(uint32_t) override {}
  void Wrote(size_t bytes) override { pmem_.Wrote(bytes); }
  void WriteBack(uint32_t) override {}
  void Barrier(const uint8_t* begin, const uint8_t* end) override {
    pmem_.Persist(begin, static_cast<size_t>(end - begin));
  }
  void ReadValue(Key, Value handle, uint8_t* out) const override {
    pmem_.Read(ValueAt(handle), out, value_size());
  }
  void ReadValues(const SlotRead* reads, size_t n) const override;
  const uint8_t* ReadPage(uint32_t page, uint8_t* scratch) const override {
    pmem_.Read(PageAt(page), scratch, page_bytes());
    return scratch;
  }
  bool crashed() const override { return pmem_.crash().crashed(); }
  void PowerOn() override { pmem_.crash().ClearCrash(); }

 private:
  uint8_t* PageAt(uint32_t page) const {
    return pmem_.AddressAt(page * page_bytes());
  }
  const uint8_t* ValueAt(Value handle) const {
    return PageAt(HandlePage(handle)) + ValueOffset(handle);
  }

  SimulatedPmem pmem_;
};

}  // namespace pieces

#endif  // PIECES_STORE_VIPER_H_

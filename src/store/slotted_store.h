// SlottedStore: the one slotted-record store behind both storage media.
// Records are fixed-size slots [key | value | RecordHeader]
// (store/record_format.h) in fixed-size pages, and the DRAM index maps each
// key to a (page << 16 | slot) handle. The core owns everything that does
// not depend on the medium:
//
//   * slot claim: a writer lock hands out slots in order and opens a page
//     when the tail fills;
//   * the commit sequence, written once over a group of puts: payload
//     barrier -> headers -> header barrier -> index swing -> commit tap ->
//     ack, and on a failed swing the header is revoked under one more
//     barrier. A medium without group commit (PMem) runs it inline as a
//     group of one, holding no lock; the grouped medium (disk) queues puts
//     and a leader runs it over the queue, every barrier with the writer
//     lock released;
//   * bulk load (both overloads and PutSynthetic's fill share one loop):
//     every slot is claimed before any record is written, so a load that
//     does not fit writes nothing; records are sealed in place page by page
//     and ONE barrier makes the whole load durable before the index is
//     built;
//   * the tiled GetBatch and Scan: resolve handles, sort each tile's hits by
//     page, and let the medium read each distinct page once;
//   * recovery: walk every slot, trust only ValidateRecord, keep
//     LatestPerKey, bulk-load the index, resume the seqno, and never refill
//     the possibly torn tail page.
//
// A medium supplies only what really differs — the protected seam below:
// allocating and counting pages, reaching a page's bytes, the durability
// barrier, batch reads, and its IoStats. ViperStore (store/viper.h) is the
// PMem medium, DiskStore (store/disk_store.h) the disk one.
#ifndef PIECES_STORE_SLOTTED_STORE_H_
#define PIECES_STORE_SLOTTED_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "index/ordered_index.h"
#include "store/crash_controller.h"
#include "store/record_format.h"
#include "store/store_backend.h"

namespace pieces {

class SlottedStore : public StoreBackend {
 public:
  static constexpr uint32_t kNoPage = 0xffffffffu;

  bool BulkLoad(const std::vector<Key>& keys) override;
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override;
  bool Put(Key key, const uint8_t* value) override;
  bool PutSynthetic(Key key) override;
  bool Get(Key key, uint8_t* out) const override;
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override;
  size_t Scan(Key from, size_t count,
              std::vector<Key>* out_keys) const override;
  uint64_t Recover() override;

  const OrderedIndex& index() const override { return *index_; }
  OrderedIndex* mutable_index() override { return index_.get(); }
  size_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }
  size_t value_size() const override { return value_size_; }

  // Arms a power cut at the n-th durability barrier from now (n >= 1; 0
  // disarms). With tear_bytes == CrashController::kNoTear the barrier
  // commits nothing;
  // otherwise a prefix of that many bytes of its writes becomes durable
  // first — a torn write. PMem counts the prefix over the persisted range,
  // the disk over the pending page writes in first-write order.
  virtual void FailAfterBarriers(uint64_t n, int64_t tear_bytes) = 0;

  size_t slots_per_page() const { return slots_per_page_; }
  // Bytes of one record: key + value + commit header.
  size_t record_bytes() const { return RecordBytes(); }
  // Distance between the first slots of two consecutive pages.
  size_t page_bytes() const { return page_bytes_; }

 protected:
  // `group_ops` == 0 commits every put inline as a group of one (only the
  // slot claim takes the writer lock); >= 1 queues puts for a leader that
  // commits up to `group_ops` under one barrier pair, waiting up to
  // `group_delay_us` for joiners when the group is not full.
  SlottedStore(std::unique_ptr<OrderedIndex> index, size_t value_size,
               size_t slots_per_page, size_t page_bytes, size_t group_ops,
               size_t group_delay_us);

  // One value to read: the slot `handle` names, copied to `dst`.
  struct SlotRead {
    Value handle;
    uint8_t* dst;
  };
  // The most reads one ReadValues call carries.
  static constexpr size_t kReadTile = 64;

  static uint32_t HandlePage(Value handle) {
    return static_cast<uint32_t>(handle >> 16);
  }
  static uint32_t HandleSlot(Value handle) {
    return static_cast<uint32_t>(handle & 0xffff);
  }
  // Offset of the slot's value inside its page.
  size_t ValueOffset(Value handle) const {
    return HandleSlot(handle) * RecordBytes() + sizeof(Key);
  }

  // Groups a leader committed, and the puts they carried.
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> grouped_puts_{0};

  // ---- The medium seam ------------------------------------------------
  // Opens the next page; kNoPage when the medium is full.
  virtual uint32_t AllocatePage() = 0;
  // Pages opened so far. Like a file's length it survives a crash.
  virtual size_t PageCount() const = 0;
  // The bytes of `page` for writing, stable until Unpin. `fresh`: the page
  // was just opened and is known to be zero. nullptr when the medium cannot
  // pin it now (every pool frame pinned): retry without the writer lock.
  virtual uint8_t* PinWrite(uint32_t page, bool fresh) = 0;
  virtual void Unpin(uint32_t page) = 0;
  // `bytes` were just stored in place (PMem accounting).
  virtual void Wrote(size_t bytes) = 0;
  // Hands the page's stored bytes to the device, not yet durable. Called
  // with the writer lock held and the page pinned.
  virtual void WriteBack(uint32_t page) = 0;
  // Durability barrier. PMem persists exactly [begin, end) — slots claimed
  // in a row are contiguous in its arena; the disk syncs every page
  // written back so far. Throws SimulatedCrash at an armed crash point.
  virtual void Barrier(const uint8_t* begin, const uint8_t* end) = 0;
  // Copies one value for Get (`key` steers disk readahead).
  virtual void ReadValue(Key key, Value handle, uint8_t* out) const = 0;
  // Copies n <= kReadTile values, sorted by handle.
  virtual void ReadValues(const SlotRead* reads, size_t n) const = 0;
  // Page bytes for the recovery walk: a pointer into the medium, or
  // `scratch` (page_bytes() long) filled from it.
  virtual const uint8_t* ReadPage(uint32_t page, uint8_t* scratch) const = 0;
  virtual bool crashed() const = 0;
  // Power back on after a crash (no-op after a clean shutdown).
  virtual void PowerOn() = 0;

 private:
  struct PendingPut;

  static Value PackHandle(uint32_t page, uint32_t slot) {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  size_t PayloadBytes() const { return sizeof(Key) + value_size_; }
  size_t RecordBytes() const { return PayloadBytes() + sizeof(RecordHeader); }
  size_t SlotOffset(uint32_t slot) const { return slot * RecordBytes(); }
  void CheckPowered() const {
    if (crashed()) throw SimulatedCrash{};
  }

  // Claims the next slot; *fresh when it opened a page. Caller holds
  // write_mu_. False when the medium is full.
  bool ClaimLocked(Value* handle, bool* fresh);
  // PinWrite that never spins while holding `lock`: a leader mid-commit
  // needs the writer lock back to unpin its group's pages.
  uint8_t* PinForWrite(uint32_t page, bool fresh,
                       std::unique_lock<std::mutex>& lock);
  // Claims a slot, writes key + fill() in place, seals, and commits.
  template <typename Fill>
  bool PutWith(Key key, const Fill& fill);
  // The commit sequence over `group` (seqno order). `lock` is the writer
  // lock when held; it is released across every barrier.
  void CommitGroup(std::span<PendingPut* const> group,
                   std::unique_lock<std::mutex>& lock);
  // One barrier over the group's payloads or headers.
  void Persist(std::span<PendingPut* const> group, bool headers,
               std::unique_lock<std::mutex>& lock);
  // Leader: drains up to group_ops_ queued puts and commits them. Called
  // and returns with write_mu_ held.
  void LeadLocked(std::unique_lock<std::mutex>& lock);
  // Sorts `reads` by handle and hands them to the medium.
  void ReadSorted(SlotRead* reads, size_t n) const;

  std::unique_ptr<OrderedIndex> index_;
  const size_t value_size_;
  const size_t slots_per_page_;
  const size_t page_bytes_;
  const size_t group_ops_;
  const size_t group_delay_us_;

  // Serializes slot claim and, for grouped commits, frame mutation and the
  // commit queue.
  std::mutex write_mu_;
  uint32_t tail_page_ = kNoPage;
  uint32_t next_slot_ = 0;  // slot within tail_page_
  std::condition_variable commit_cv_;
  std::deque<PendingPut*> commit_queue_;
  bool leader_active_ = false;

  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> next_seqno_{1};
};

}  // namespace pieces

#endif  // PIECES_STORE_SLOTTED_STORE_H_

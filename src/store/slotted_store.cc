#include "store/slotted_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.h"

namespace pieces {

// One put on the commit path. Lives on its writer's stack; the queue holds
// pointers, valid until the state resolves.
struct SlottedStore::PendingPut {
  Key key = 0;
  Value handle = 0;
  uint8_t* rec = nullptr;  // the slot's bytes
  RecordHeader header;     // sealed at staging, stored after barrier 1
  enum class State { kQueued, kCommitted, kRejected, kCrashed };
  State state = State::kQueued;
};

SlottedStore::SlottedStore(std::unique_ptr<OrderedIndex> index,
                           size_t value_size, size_t slots_per_page,
                           size_t page_bytes, size_t group_ops,
                           size_t group_delay_us)
    : index_(std::move(index)),
      value_size_(value_size),
      slots_per_page_(slots_per_page),
      page_bytes_(page_bytes),
      group_ops_(group_ops),
      group_delay_us_(group_delay_us) {}

bool SlottedStore::ClaimLocked(Value* handle, bool* fresh) {
  *fresh = false;
  if (tail_page_ == kNoPage || next_slot_ >= slots_per_page_) {
    const uint32_t page = AllocatePage();
    if (page == kNoPage) return false;
    tail_page_ = page;
    next_slot_ = 0;
    *fresh = true;
  }
  *handle = PackHandle(tail_page_, next_slot_++);
  return true;
}

uint8_t* SlottedStore::PinForWrite(uint32_t page, bool fresh,
                                   std::unique_lock<std::mutex>& lock) {
  uint8_t* bytes;
  while ((bytes = PinWrite(page, fresh)) == nullptr) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
    CheckPowered();  // a crash meanwhile took the claimed slot with it
    fresh = false;   // someone else may have pinned and filled it since
  }
  return bytes;
}

bool SlottedStore::BulkLoad(const std::vector<Key>& keys) {
  return BulkLoad(keys, [this](Key key, uint8_t* value) {
    FillSyntheticRecordValue(key, value, value_size_);
  });
}

bool SlottedStore::BulkLoad(const std::vector<Key>& keys,
                            const std::function<void(Key, uint8_t*)>& fill) {
  CheckPowered();
  // A load replaces the index, so it excludes writers throughout.
  std::unique_lock<std::mutex> lock(write_mu_);
  // Claim every slot before writing a record: a load that does not fit
  // writes nothing, so no later Recover() brings back a prefix of a load
  // its caller was told failed. Pages opened here are known zero.
  const uint32_t first_fresh = tail_page_ == kNoPage ? 0 : tail_page_ + 1;
  std::vector<KeyValue> entries(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    bool fresh;
    if (!ClaimLocked(&entries[i].value, &fresh)) return false;
    entries[i].key = keys[i];
  }
  // Seal every record in place, one page pinned at a time; each page goes
  // to the device (not yet durable) as it closes.
  const uint8_t* begin = nullptr;
  const uint8_t* end = nullptr;
  for (size_t i = 0; i < entries.size();) {
    const uint32_t page = HandlePage(entries[i].value);
    uint8_t* bytes = PinForWrite(page, page >= first_fresh, lock);
    for (; i < entries.size() && HandlePage(entries[i].value) == page; ++i) {
      const Key key = entries[i].key;
      uint8_t* rec = bytes + SlotOffset(HandleSlot(entries[i].value));
      std::memcpy(rec, &key, sizeof(Key));
      fill(key, rec + sizeof(Key));
      const RecordHeader header =
          SealRecord(rec, PayloadBytes(), next_seqno_.fetch_add(1));
      std::memcpy(rec + PayloadBytes(), &header, sizeof(RecordHeader));
      Wrote(RecordBytes());
      if (begin == nullptr) begin = rec;
      end = rec + RecordBytes();
    }
    WriteBack(page);
    Unpin(page);
  }
  // One barrier per load: the whole load is durable before the index is
  // built and the load acknowledged. A crash at it keeps a page-order
  // prefix of the load (a torn boundary record fails its CRC); nothing
  // unacknowledged was promised.
  if (begin != nullptr) Barrier(begin, end);
  index_->BulkLoad(entries);
  size_.store(keys.size(), std::memory_order_relaxed);
  return true;
}

bool SlottedStore::Put(Key key, const uint8_t* value) {
  return PutWith(key, [&](uint8_t* dst) {
    std::memcpy(dst, value, value_size_);
  });
}

bool SlottedStore::PutSynthetic(Key key) {
  return PutWith(key, [&](uint8_t* dst) {
    FillSyntheticRecordValue(key, dst, value_size_);
  });
}

template <typename Fill>
bool SlottedStore::PutWith(Key key, const Fill& fill) {
  CheckPowered();
  // Out of place: every put writes a fresh slot, then swings the index.
  // Slots are never reused and recovery never refills its tail page, so a
  // claimed slot's header is still zero.
  PendingPut put;
  put.key = key;
  bool fresh;
  std::unique_lock<std::mutex> lock(write_mu_);
  if (!ClaimLocked(&put.handle, &fresh)) return false;
  if (group_ops_ == 0) lock.unlock();  // inline: only the claim serializes
  put.rec = PinForWrite(HandlePage(put.handle), fresh, lock) +
            SlotOffset(HandleSlot(put.handle));
  std::memcpy(put.rec, &key, sizeof(Key));
  fill(put.rec + sizeof(Key));
  Wrote(PayloadBytes());
  // Queued puts take their seqno under write_mu_, so seqno order is queue
  // order is index-swing order.
  put.header = SealRecord(put.rec, PayloadBytes(), next_seqno_.fetch_add(1));
  PendingPut* self = &put;
  if (group_ops_ == 0) {
    CommitGroup(std::span<PendingPut* const>(&self, 1), lock);
    return put.state == PendingPut::State::kCommitted;
  }
  commit_queue_.push_back(self);
  commit_cv_.notify_all();  // wake a leader waiting out its joiner window
  // Park until a leader resolves the put — or lead, whenever the seat is
  // empty. (A leader can come back with its own put still queued when the
  // group overflowed ahead of it; it then leads again.)
  while (put.state == PendingPut::State::kQueued) {
    if (!leader_active_) {
      leader_active_ = true;
      LeadLocked(lock);
    } else {
      commit_cv_.wait(lock);
    }
  }
  // A crashed group barrier: the caller sees the SimulatedCrash the leader
  // did. Pins leak by design (recovery drops them).
  if (put.state == PendingPut::State::kCrashed) throw SimulatedCrash{};
  return put.state == PendingPut::State::kCommitted;
}

void SlottedStore::Persist(std::span<PendingPut* const> group, bool headers,
                           std::unique_lock<std::mutex>& lock) {
  // Write-backs run under the writer lock (later writers store into other
  // slots of the same pages under it); the barrier runs without it, so the
  // store stays open while the device flushes.
  uint32_t written = kNoPage;
  for (const PendingPut* put : group) {
    const uint32_t page = HandlePage(put->handle);
    if (page != written) WriteBack(page);  // members cluster in the tail
    written = page;
  }
  const size_t from = headers ? PayloadBytes() : 0;
  const size_t to = headers ? RecordBytes() : PayloadBytes();
  const bool relock = lock.owns_lock();
  if (relock) lock.unlock();
  Barrier(group.front()->rec + from, group.back()->rec + to);
  if (relock) lock.lock();
}

void SlottedStore::CommitGroup(std::span<PendingPut* const> group,
                               std::unique_lock<std::mutex>& lock) {
  // Barrier 1 covers the payloads; a crash here leaves no header, so
  // recovery includes exactly the acknowledged puts.
  Persist(group, /*headers=*/false, lock);
  for (PendingPut* put : group) {
    std::memcpy(put->rec + PayloadBytes(), &put->header, sizeof(RecordHeader));
    Wrote(sizeof(RecordHeader));
  }
  // Barrier 2: the group is durable.
  Persist(group, /*headers=*/true, lock);
  // Index swings in seqno order, so a key written twice in one group ends
  // with its highest seqno live — what recovery would reconstruct.
  std::vector<PendingPut*> revoked;
  for (PendingPut* put : group) {
    if (!index_->Insert(put->key, put->handle)) {
      revoked.push_back(put);
      continue;
    }
    put->state = PendingPut::State::kCommitted;
    size_.fetch_add(1, std::memory_order_relaxed);
    // Replication tap: durable and visible, announced before the ack. The
    // value bytes sit in the still-pinned slot.
    EmitCommit(put->header.seqno, put->key, put->rec + sizeof(Key),
               value_size_);
  }
  if (!revoked.empty()) {
    // Durable but never acknowledged: revoke the headers under one more
    // barrier, so recovery cannot resurrect a put its caller was told
    // failed. kRejected lands only once the revoke is durable.
    const RecordHeader zero;
    for (PendingPut* put : revoked) {
      std::memcpy(put->rec + PayloadBytes(), &zero, sizeof(RecordHeader));
      Wrote(sizeof(RecordHeader));
    }
    Persist(revoked, /*headers=*/true, lock);
    for (PendingPut* put : revoked) put->state = PendingPut::State::kRejected;
  }
  for (PendingPut* put : group) Unpin(HandlePage(put->handle));
}

void SlottedStore::LeadLocked(std::unique_lock<std::mutex>& lock) {
  // Joiner window: give concurrent writers a beat to enqueue before the
  // barriers are paid; a full group commits at once.
  if (commit_queue_.size() < group_ops_ && group_delay_us_ > 0) {
    commit_cv_.wait_for(lock, std::chrono::microseconds(group_delay_us_),
                        [&] { return commit_queue_.size() >= group_ops_; });
  }
  std::vector<PendingPut*> group;
  while (!commit_queue_.empty() && group.size() < group_ops_) {
    group.push_back(commit_queue_.front());
    commit_queue_.pop_front();
  }
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  grouped_puts_.fetch_add(group.size(), std::memory_order_relaxed);
  try {
    CommitGroup(group, lock);
  } catch (const SimulatedCrash&) {
    if (!lock.owns_lock()) lock.lock();
    // Power failed at a group barrier: the group crashes, and so does
    // everything still queued (its durability is unknowable now). Members
    // already kCommitted keep their ack — their commit and swing preceded
    // the crashed revoke barrier.
    commit_queue_.insert(commit_queue_.begin(), group.begin(), group.end());
    for (PendingPut* put : commit_queue_) {
      if (put->state == PendingPut::State::kQueued) {
        put->state = PendingPut::State::kCrashed;
      }
    }
    commit_queue_.clear();
    leader_active_ = false;
    commit_cv_.notify_all();
    throw;
  }
  leader_active_ = false;
  commit_cv_.notify_all();
}

bool SlottedStore::Get(Key key, uint8_t* out) const {
  CheckPowered();
  Value handle;
  if (!index_->Get(key, &handle)) return false;
  ReadValue(key, handle, out);
  return true;
}

void SlottedStore::ReadSorted(SlotRead* reads, size_t n) const {
  // Sorted by handle, the reads of one page are adjacent, so the medium
  // touches each distinct page once.
  std::sort(reads, reads + n, [](const SlotRead& a, const SlotRead& b) {
    return a.handle < b.handle;
  });
  ReadValues(reads, n);
}

size_t SlottedStore::GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                              bool* found) const {
  CheckPowered();
  Value handles[kReadTile];
  SlotRead reads[kReadTile];
  size_t hits = 0;
  for (size_t base = 0; base < keys.size(); base += kReadTile) {
    const size_t m = std::min(kReadTile, keys.size() - base);
    index_->GetBatch(keys.subspan(base, m), handles, found + base);
    size_t k = 0;
    for (size_t j = 0; j < m; ++j) {
      if (found[base + j]) reads[k++] = {handles[j], outs[base + j]};
    }
    ReadSorted(reads, k);
    hits += k;
  }
  return hits;
}

size_t SlottedStore::Scan(Key from, size_t count,
                          std::vector<Key>* out_keys) const {
  CheckPowered();
  std::vector<KeyValue> handles;
  handles.reserve(count);
  const size_t got = index_->Scan(from, count, &handles);
  // Values are read (charged) in tiles but only keys are returned.
  std::vector<uint8_t> value(value_size_);
  SlotRead reads[kReadTile];
  for (size_t base = 0; base < handles.size(); base += kReadTile) {
    const size_t m = std::min(kReadTile, handles.size() - base);
    for (size_t i = 0; i < m; ++i) {
      reads[i] = {handles[base + i].value, value.data()};
      out_keys->push_back(handles[base + i].key);
    }
    ReadSorted(reads, m);
  }
  return got;
}

uint64_t SlottedStore::Recover() {
  Timer timer;
  PowerOn();
  std::lock_guard<std::mutex> lock(write_mu_);
  // The page count survives a crash the way a file's length does; nothing
  // else from the pre-crash DRAM state is trusted. Walk every slot and keep
  // only validating commit headers.
  const size_t pages = PageCount();
  std::vector<RecoveredRecord> records;
  records.reserve(pages * slots_per_page_);
  std::vector<uint8_t> scratch(page_bytes_);
  for (uint32_t p = 0; p < pages; ++p) {
    const uint8_t* bytes = ReadPage(p, scratch.data());
    for (uint32_t s = 0; s < slots_per_page_; ++s) {
      RecoveredRecord found{.handle = PackHandle(p, s)};
      if (ValidateRecord(bytes + SlotOffset(s), PayloadBytes(), &found)) {
        records.push_back(found);
      }
    }
  }
  uint64_t max_seqno;
  const std::vector<KeyValue> latest = LatestPerKey(records, &max_seqno);
  index_->BulkLoad(latest);
  size_.store(latest.size(), std::memory_order_relaxed);
  next_seqno_.store(max_seqno + 1, std::memory_order_relaxed);
  // Never refill the possibly torn tail page: the next claim opens a fresh
  // one.
  tail_page_ = kNoPage;
  next_slot_ = 0;
  return timer.ElapsedNanos();
}

}  // namespace pieces

#include "store/viper.h"

#include <algorithm>
#include <cstring>

#include "common/timer.h"

namespace pieces {

ViperStore::ViperStore(std::unique_ptr<OrderedIndex> index,
                       const Config& config)
    : config_(config),
      pmem_(config.pmem_capacity, config.read_latency_ns,
            config.write_latency_ns),
      index_(std::move(index)) {
  // Pre-reserve the page directory so concurrent readers never observe a
  // reallocation of pages_ while writers append. Every allocation is one
  // page, so this bound holds across any number of crash/recover cycles.
  pages_.reserve(config_.pmem_capacity / std::max<size_t>(1, PageBytes()) + 1);
}

void ViperStore::FillSyntheticValue(Key key, uint8_t* buf,
                                    size_t value_size) {
  // Deterministic value derived from the key so tests can verify reads;
  // shared across backends (record_format.h) so differential tests can
  // compare payloads byte-for-byte between media.
  FillSyntheticRecordValue(key, buf, value_size);
}

void ViperStore::FillSynthetic(Key key, uint8_t* buf) const {
  FillSyntheticValue(key, buf, config_.value_size);
}

bool ViperStore::ClaimSlot(uint32_t* page, uint32_t* slot) {
  std::lock_guard<std::mutex> lock(pages_mutex_);
  uint32_t s = next_slot_.load(std::memory_order_relaxed);
  if (pages_.empty() || s >= config_.slots_per_page) {
    uint8_t* base = pmem_.Allocate(RecordBytes() * config_.slots_per_page);
    if (base == nullptr) return false;
    pages_.push_back({base});
    s = 0;
  }
  *page = static_cast<uint32_t>(pages_.size() - 1);
  *slot = s;
  next_slot_.store(s + 1, std::memory_order_relaxed);
  return true;
}

bool ViperStore::BulkLoad(const std::vector<Key>& keys) {
  return BulkLoad(keys, [this](Key key, uint8_t* buf) {
    FillSynthetic(key, buf);
  });
}

bool ViperStore::BulkLoad(const std::vector<Key>& keys,
                          const std::function<void(Key, uint8_t*)>& fill) {
  std::vector<KeyValue> entries;
  entries.reserve(keys.size());
  std::vector<uint8_t> record(RecordBytes());
  // Batched durability: one barrier per page span instead of one global
  // fence at the end (which left every record unpersisted mid-load — a
  // crash would have dropped the whole load despite the writes).
  uint8_t* span_start = nullptr;
  size_t span_bytes = 0;
  uint32_t span_page = 0;
  for (Key key : keys) {
    uint32_t page;
    uint32_t slot;
    if (!ClaimSlot(&page, &slot)) {
      if (span_bytes > 0) pmem_.Persist(span_start, span_bytes);
      return false;
    }
    std::memcpy(record.data(), &key, sizeof(Key));
    fill(key, record.data() + sizeof(Key));
    RecordHeader header =
        SealRecord(record.data(), PayloadBytes(), next_seqno_++);
    std::memcpy(record.data() + PayloadBytes(), &header, sizeof(RecordHeader));
    uint8_t* addr = SlotAddr(page, slot);
    pmem_.Write(addr, record.data(), record.size());
    if (span_bytes > 0 && page != span_page) {
      pmem_.Persist(span_start, span_bytes);
      span_bytes = 0;
    }
    if (span_bytes == 0) {
      span_start = addr;
      span_page = page;
    }
    span_bytes = static_cast<size_t>(addr - span_start) + record.size();
    entries.push_back({key, PackHandle(page, slot)});
  }
  if (span_bytes > 0) pmem_.Persist(span_start, span_bytes);
  index_->BulkLoad(entries);
  size_.store(keys.size(), std::memory_order_relaxed);
  return true;
}

bool ViperStore::Put(Key key, const uint8_t* value) {
  // Viper is out-of-place: every put writes a fresh slot, then swings the
  // index. (Stale slots would be garbage-collected; the paper's workloads
  // never reclaim, so neither do we.)
  uint32_t page;
  uint32_t slot;
  if (!ClaimSlot(&page, &slot)) return false;
  std::vector<uint8_t> record(RecordBytes());
  std::memcpy(record.data(), &key, sizeof(Key));
  std::memcpy(record.data() + sizeof(Key), value, config_.value_size);
  uint8_t* addr = SlotAddr(page, slot);
  // Commit protocol: payload, barrier, header, barrier, index swing, ack.
  // A crash at either barrier leaves the slot invalid (no/torn header),
  // so recovery includes exactly the acknowledged puts.
  pmem_.Write(addr, record.data(), PayloadBytes());
  pmem_.Persist(addr, PayloadBytes());
  RecordHeader header =
      SealRecord(record.data(), PayloadBytes(), next_seqno_++);
  pmem_.Write(addr + PayloadBytes(), &header, sizeof(RecordHeader));
  pmem_.Persist(addr + PayloadBytes(), sizeof(RecordHeader));
  if (!index_->Insert(key, PackHandle(page, slot))) {
    // The record is durable but will never be acknowledged: revoke its
    // commit header so recovery cannot resurrect a put the caller was
    // told failed (the old code returned false here and left the slot
    // committed).
    RecordHeader revoked;
    pmem_.Write(addr + PayloadBytes(), &revoked, sizeof(RecordHeader));
    pmem_.Persist(addr + PayloadBytes(), sizeof(RecordHeader));
    return false;
  }
  // Replication tap: the record is durable and visible — announce it
  // before the caller is acked so watermark reads can never miss it.
  EmitCommit(header.seqno, key, record.data() + sizeof(Key),
             config_.value_size);
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ViperStore::PutSynthetic(Key key) {
  std::vector<uint8_t> value(config_.value_size);
  FillSynthetic(key, value.data());
  return Put(key, value.data());
}

bool ViperStore::Get(Key key, uint8_t* out) const {
  Value handle;
  if (!index_->Get(key, &handle)) return false;
  const uint8_t* addr = SlotAddr(HandlePage(handle), HandleSlot(handle));
  pmem_.Read(addr + sizeof(Key), out, config_.value_size);
  return true;
}

size_t ViperStore::GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                            bool* found) const {
  constexpr size_t kTile = 64;
  Value handles[kTile];
  const uint8_t* srcs[kTile];
  uint8_t* dsts[kTile];
  size_t hits = 0;
  for (size_t base = 0; base < keys.size(); base += kTile) {
    size_t m = std::min(kTile, keys.size() - base);
    index_->GetBatch(keys.subspan(base, m), handles, found + base);
    // Gather the hit slots, touching every value's cache lines before the
    // copies so the PMem reads overlap instead of serializing.
    size_t k = 0;
    for (size_t j = 0; j < m; ++j) {
      if (!found[base + j]) continue;
      const uint8_t* addr =
          SlotAddr(HandlePage(handles[j]), HandleSlot(handles[j])) +
          sizeof(Key);
      for (size_t off = 0; off < config_.value_size; off += 64) {
        __builtin_prefetch(addr + off);
      }
      srcs[k] = addr;
      dsts[k] = outs[base + j];
      ++k;
    }
    pmem_.ReadBatch(srcs, dsts, config_.value_size, k);
    hits += k;
  }
  return hits;
}

size_t ViperStore::Scan(Key from, size_t count,
                        std::vector<Key>* out_keys) const {
  std::vector<KeyValue> handles;
  handles.reserve(count);
  size_t got = index_->Scan(from, count, &handles);
  std::vector<uint8_t> value(config_.value_size);
  for (const KeyValue& kv : handles) {
    const uint8_t* addr = SlotAddr(HandlePage(kv.value), HandleSlot(kv.value));
    pmem_.Read(addr + sizeof(Key), value.data(), config_.value_size);
    out_keys->push_back(kv.key);
  }
  return got;
}

uint64_t ViperStore::Recover() {
  Timer timer;
  // Power back on (no-op after a clean shutdown).
  pmem_.crash().ClearCrash();
  std::lock_guard<std::mutex> lock(pages_mutex_);
  // Re-derive the page directory from the durable arena extent: every
  // allocation is exactly one page, so the directory is implied by the
  // allocator offset (which survives a crash the way a file size does —
  // see crash_controller.h). Nothing from the volatile pre-crash
  // directory is trusted.
  const size_t page_bytes = PageBytes();
  const size_t num_pages = pmem_.used() / page_bytes;
  pages_.clear();
  for (size_t p = 0; p < num_pages; ++p) {
    pages_.push_back({pmem_.AddressAt(p * page_bytes)});
  }
  // Never resume filling a possibly-torn tail page: the next claim after
  // recovery opens a fresh page (out-of-place stores never reclaim slots
  // anyway).
  next_slot_.store(static_cast<uint32_t>(config_.slots_per_page),
                   std::memory_order_relaxed);

  // Scan every slot; trust only validating commit headers.
  std::vector<RecoveredRecord> records;
  records.reserve(num_pages * config_.slots_per_page);
  std::vector<uint8_t> record(RecordBytes());
  for (uint32_t p = 0; p < num_pages; ++p) {
    for (uint32_t s = 0; s < config_.slots_per_page; ++s) {
      pmem_.Read(SlotAddr(p, s), record.data(), record.size());
      RecoveredRecord found{.handle = PackHandle(p, s)};
      if (ValidateRecord(record.data(), PayloadBytes(), &found)) {
        records.push_back(found);
      }
    }
  }
  uint64_t max_seqno;
  const std::vector<KeyValue> latest = LatestPerKey(records, &max_seqno);
  index_->BulkLoad(latest);
  size_.store(latest.size(), std::memory_order_relaxed);
  next_seqno_.store(max_seqno + 1, std::memory_order_relaxed);
  return timer.ElapsedNanos();
}

}  // namespace pieces

// Span tracing for the benchmark's traced run. The library is not
// instrumented: spans are recorded by decorators around the public
// classes each layer exposes (StoreBackend, OrderedIndex, CommitTap) and
// by the traced client around Shard::Enqueue, so the program under test
// is byte-identical to the untraced run's.
//
// Each span has a kind, start and end (steady clock), the span that was
// open on the same thread when it began (its parent), and a count of the
// keys or requests it covered. Spans are appended to per-thread buffers,
// kept in memory, and collected once the traced phase has drained.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/ordered_index.h"
#include "store/store_backend.h"

namespace perfbench::trace {

enum class Kind : uint8_t {
  kEnqueue,  // client: Shard::Enqueue of one per-shard batch
  kStoreGet,
  kStoreGetBatch,
  kStorePut,
  kStoreScan,
  kIndexGet,
  kIndexGetBatch,
  kIndexPredict,
  kIndexInsert,
  kIndexScan,
  kReplTap,      // the commit tap (ReplicationLog::OnCommit)
  kReplCatchup,  // ReplicaSession::WaitCaughtUp after the phase
  kCount,
};

bool IsStoreKind(Kind kind);
bool IsIndexKind(Kind kind);

struct Span {
  uint64_t id = 0;      // unique across threads; 0 = none
  uint64_t parent = 0;  // enclosing span on the same thread, or 0
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t n = 1;  // keys (store/index batch calls) or requests (enqueue)
  Kind kind = Kind::kEnqueue;
};

// Recording is off until Enable(true); a disabled Scope costs one relaxed
// load.
void Enable(bool on);

// Id of the store span that most recently closed on the calling thread:
// a request completion running right after its store call reads it to
// link the request to the store work done for it.
uint64_t LastStoreSpan();

// Every span recorded so far, from all threads; clears the buffers. Call
// only while no thread records (the traced phase has drained).
std::vector<Span> Collect();

// RAII span on the calling thread.
class Scope {
 public:
  Scope(Kind kind, uint32_t n = 1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint64_t id_ = 0;  // 0 when tracing was off at construction
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
  uint32_t n_;
  Kind kind_;
};

// Writes the `limit` earliest-starting spans as tab-separated text, one
// per line: id parent kind start_ns end_ns n.
bool WriteSpans(const std::string& path, std::vector<Span> spans,
                size_t limit);

// ---- Decorators ----------------------------------------------------------

// OrderedIndex that records a span around every call into the index and
// forwards to the wrapped instance. BulkLoad is timed separately (setup
// and recovery run outside the traced phase).
class TracedIndex : public pieces::OrderedIndex {
 public:
  explicit TracedIndex(std::unique_ptr<pieces::OrderedIndex> inner)
      : inner_(std::move(inner)) {}

  void BulkLoad(std::span<const pieces::KeyValue> data) override;
  bool Get(pieces::Key key, pieces::Value* value) const override;
  size_t GetBatch(std::span<const pieces::Key> keys, pieces::Value* values,
                  bool* found) const override;
  bool PredictRank(pieces::Key key, size_t* lo, size_t* hi) const override;
  bool Insert(pieces::Key key, pieces::Value value) override;
  size_t Scan(pieces::Key from, size_t count,
              std::vector<pieces::KeyValue>* out) const override;
  size_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  size_t TotalSizeBytes() const override { return inner_->TotalSizeBytes(); }
  pieces::IndexStats Stats() const override { return inner_->Stats(); }
  std::string_view Name() const override { return inner_->Name(); }
  bool SupportsInsert() const override { return inner_->SupportsInsert(); }
  bool SupportsScan() const override { return inner_->SupportsScan(); }
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }
  pieces::MaintenanceHook* maintenance() override {
    return inner_->maintenance();
  }

  // Wall time of every BulkLoad so far, in nanoseconds.
  uint64_t bulkload_ns() const {
    return bulkload_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<pieces::OrderedIndex> inner_;
  std::atomic<uint64_t> bulkload_ns_{0};
};

// StoreBackend that forwards every call to the wrapped store.
class ForwardingStore : public pieces::StoreBackend {
 public:
  explicit ForwardingStore(std::unique_ptr<pieces::StoreBackend> inner)
      : inner_(std::move(inner)) {}

  bool BulkLoad(const std::vector<pieces::Key>& keys) override {
    return inner_->BulkLoad(keys);
  }
  bool BulkLoad(const std::vector<pieces::Key>& keys,
                const std::function<void(pieces::Key, uint8_t*)>& fill)
      override {
    return inner_->BulkLoad(keys, fill);
  }
  bool Put(pieces::Key key, const uint8_t* value) override {
    return inner_->Put(key, value);
  }
  bool PutSynthetic(pieces::Key key) override {
    return inner_->PutSynthetic(key);
  }
  bool Get(pieces::Key key, uint8_t* out) const override {
    return inner_->Get(key, out);
  }
  size_t GetBatch(std::span<const pieces::Key> keys, uint8_t* const* outs,
                  bool* found) const override {
    return inner_->GetBatch(keys, outs, found);
  }
  size_t Scan(pieces::Key from, size_t count,
              std::vector<pieces::Key>* out_keys) const override {
    return inner_->Scan(from, count, out_keys);
  }
  void Crash() override { inner_->Crash(); }
  uint64_t Recover() override { return inner_->Recover(); }
  const pieces::OrderedIndex& index() const override {
    return inner_->index();
  }
  pieces::OrderedIndex* mutable_index() override {
    return inner_->mutable_index();
  }
  size_t size() const override { return inner_->size(); }
  size_t value_size() const override { return inner_->value_size(); }
  std::string_view BackendName() const override {
    return inner_->BackendName();
  }
  pieces::StoreIoStats IoStats() const override { return inner_->IoStats(); }

 protected:
  std::unique_ptr<pieces::StoreBackend> inner_;
};

// Records a span around every read and write call into the store.
class TracedStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  bool Put(pieces::Key key, const uint8_t* value) override;
  bool PutSynthetic(pieces::Key key) override;
  bool Get(pieces::Key key, uint8_t* out) const override;
  size_t GetBatch(std::span<const pieces::Key> keys, uint8_t* const* outs,
                  bool* found) const override;
  size_t Scan(pieces::Key from, size_t count,
              std::vector<pieces::Key>* out_keys) const override;
};

// Flips one byte of every 1000th payload read through it. The self-test
// wraps stores in it to prove the correctness gate fails the run.
class CorruptingStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  bool Get(pieces::Key key, uint8_t* out) const override;
  size_t GetBatch(std::span<const pieces::Key> keys, uint8_t* const* outs,
                  bool* found) const override;

 private:
  void MaybeCorrupt(uint8_t* value) const;
  mutable std::atomic<uint64_t> reads_{0};
};

// Commit tap that records a span around the replication log's OnCommit.
class TracedTap : public pieces::CommitTap {
 public:
  explicit TracedTap(std::shared_ptr<pieces::CommitTap> inner)
      : inner_(std::move(inner)) {}
  void OnCommit(const pieces::CommitRecord& record) override;

 private:
  std::shared_ptr<pieces::CommitTap> inner_;
};

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_

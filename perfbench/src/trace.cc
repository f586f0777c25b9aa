#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/timer.h"

namespace perfbench::trace {
namespace {

// Spans live in fixed-size chunks, so recording never copies what was
// already recorded (a growing vector would stall the recording thread).
constexpr size_t kChunkSpans = size_t{1} << 16;

struct ThreadBuffer {
  uint64_t thread_no = 0;
  uint64_t next = 0;   // local sequence number of the next span id
  size_t count = 0;    // spans recorded since the last Collect
  std::vector<std::unique_ptr<Span[]>> chunks;

  void Push(const Span& span) {
    if (count == chunks.size() * kChunkSpans) {
      chunks.push_back(std::make_unique<Span[]>(kChunkSpans));
    }
    chunks[count / kChunkSpans][count % kChunkSpans] = span;
    ++count;
  }
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // under g_buffers_mu

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local uint64_t tls_open = 0;        // innermost open span id
thread_local uint64_t tls_last_store = 0;  // last closed store span id

ThreadBuffer& Buffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    tls_buffer = g_buffers.back().get();
    tls_buffer->thread_no = g_buffers.size();
  }
  return *tls_buffer;
}

const char* KindName(Kind kind) {
  static const char* const kNames[] = {
      "service.enqueue", "store.get",     "store.getbatch", "store.put",
      "store.scan",      "index.get",     "index.getbatch", "index.predict",
      "index.insert",    "index.scan",    "repl.tap",       "repl.catchup"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Kind::kCount));
  return kNames[static_cast<size_t>(kind)];
}

}  // namespace

bool IsStoreKind(Kind kind) {
  return kind >= Kind::kStoreGet && kind <= Kind::kStoreScan;
}

bool IsIndexKind(Kind kind) {
  return kind >= Kind::kIndexGet && kind <= Kind::kIndexScan;
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

uint64_t LastStoreSpan() { return tls_last_store; }

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (auto& buffer : g_buffers) {
    for (size_t c = 0; c < buffer->chunks.size(); ++c) {
      const size_t n =
          std::min(kChunkSpans, buffer->count - c * kChunkSpans);
      all.insert(all.end(), buffer->chunks[c].get(),
                 buffer->chunks[c].get() + n);
      buffer->chunks[c].reset();  // keeps the copy's peak to one chunk
    }
    buffer->count = 0;
    buffer->chunks.clear();
  }
  return all;
}

Scope::Scope(Kind kind, uint32_t n) : n_(n), kind_(kind) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = Buffer();
  id_ = (buffer.thread_no << 40) | ++buffer.next;
  parent_ = tls_open;
  tls_open = id_;
  start_ = pieces::NowNanos();
}

Scope::~Scope() {
  if (id_ == 0) return;
  Span span;
  span.end = pieces::NowNanos();
  span.start = start_;
  span.id = id_;
  span.parent = parent_;
  span.n = n_;
  span.kind = kind_;
  tls_buffer->Push(span);
  tls_open = parent_;
  if (IsStoreKind(kind_)) tls_last_store = id_;
}

bool WriteSpans(const std::string& path, std::vector<Span> spans,
                size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  if (spans.size() > limit) spans.resize(limit);
  std::fprintf(f, "id\tparent\tkind\tstart_ns\tend_ns\tn\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%s\t%llu\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), KindName(s.kind),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), s.n);
  }
  return std::fclose(f) == 0;
}

// ---- TracedIndex -----------------------------------------------------------

void TracedIndex::BulkLoad(std::span<const pieces::KeyValue> data) {
  const uint64_t start = pieces::NowNanos();
  inner_->BulkLoad(data);
  bulkload_ns_.fetch_add(pieces::NowNanos() - start,
                         std::memory_order_relaxed);
}

bool TracedIndex::Get(pieces::Key key, pieces::Value* value) const {
  Scope scope(Kind::kIndexGet);
  return inner_->Get(key, value);
}

size_t TracedIndex::GetBatch(std::span<const pieces::Key> keys,
                             pieces::Value* values, bool* found) const {
  Scope scope(Kind::kIndexGetBatch, static_cast<uint32_t>(keys.size()));
  return inner_->GetBatch(keys, values, found);
}

bool TracedIndex::PredictRank(pieces::Key key, size_t* lo,
                              size_t* hi) const {
  Scope scope(Kind::kIndexPredict);
  return inner_->PredictRank(key, lo, hi);
}

bool TracedIndex::Insert(pieces::Key key, pieces::Value value) {
  Scope scope(Kind::kIndexInsert);
  return inner_->Insert(key, value);
}

size_t TracedIndex::Scan(pieces::Key from, size_t count,
                         std::vector<pieces::KeyValue>* out) const {
  Scope scope(Kind::kIndexScan, static_cast<uint32_t>(count));
  return inner_->Scan(from, count, out);
}

// ---- TracedStore -----------------------------------------------------------

bool TracedStore::Put(pieces::Key key, const uint8_t* value) {
  Scope scope(Kind::kStorePut);
  return inner_->Put(key, value);
}

bool TracedStore::PutSynthetic(pieces::Key key) {
  Scope scope(Kind::kStorePut);
  return inner_->PutSynthetic(key);
}

bool TracedStore::Get(pieces::Key key, uint8_t* out) const {
  Scope scope(Kind::kStoreGet);
  return inner_->Get(key, out);
}

size_t TracedStore::GetBatch(std::span<const pieces::Key> keys,
                             uint8_t* const* outs, bool* found) const {
  Scope scope(Kind::kStoreGetBatch, static_cast<uint32_t>(keys.size()));
  return inner_->GetBatch(keys, outs, found);
}

size_t TracedStore::Scan(pieces::Key from, size_t count,
                         std::vector<pieces::Key>* out_keys) const {
  Scope scope(Kind::kStoreScan, static_cast<uint32_t>(count));
  return inner_->Scan(from, count, out_keys);
}

// ---- CorruptingStore -------------------------------------------------------

void CorruptingStore::MaybeCorrupt(uint8_t* value) const {
  if (reads_.fetch_add(1, std::memory_order_relaxed) % 1000 == 999) {
    value[0] ^= 0x5a;
  }
}

bool CorruptingStore::Get(pieces::Key key, uint8_t* out) const {
  const bool found = inner_->Get(key, out);
  if (found) MaybeCorrupt(out);
  return found;
}

size_t CorruptingStore::GetBatch(std::span<const pieces::Key> keys,
                                 uint8_t* const* outs, bool* found) const {
  const size_t hits = inner_->GetBatch(keys, outs, found);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (found[i]) MaybeCorrupt(outs[i]);
  }
  return hits;
}

// ---- TracedTap -------------------------------------------------------------

void TracedTap::OnCommit(const pieces::CommitRecord& record) {
  Scope scope(Kind::kReplTap);
  inner_->OnCommit(record);
}

}  // namespace perfbench::trace

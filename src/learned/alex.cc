#include "learned/alex.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <thread>

#include "common/epoch.h"
#include "common/search.h"
#include "common/timer.h"

namespace pieces {

namespace {
// Tail gaps hold this sentinel so the slot array stays sorted. Stored keys
// must therefore be < 2^64-1 (all generators in this repo guarantee it).
constexpr Key kSentinel = std::numeric_limits<Key>::max();

// A version lock: odd = write-locked. Readers snapshot the version and
// re-validate; writers CAS the version to odd, then bump it on unlock so
// concurrent readers notice the change and restart. (Same protocol as
// traditional/olc_btree.cc.)
class VersionLock {
 public:
  // Returns the current (even) version, or false via *ok when locked.
  uint64_t ReadLock(bool* ok) const {
    uint64_t v = version_.load(std::memory_order_acquire);
    *ok = (v & 1) == 0;
    return v;
  }
  bool Validate(uint64_t v) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return version_.load(std::memory_order_acquire) == v;
  }
  bool Upgrade(uint64_t v) {
    return version_.compare_exchange_strong(v, v + 1,
                                            std::memory_order_acquire);
  }
  bool TryWriteLock() {
    uint64_t v = version_.load(std::memory_order_acquire);
    return (v & 1) == 0 && Upgrade(v);
  }
  void WriteUnlock() { version_.fetch_add(1, std::memory_order_release); }

 private:
  mutable std::atomic<uint64_t> version_{0};
};

// Optimistic readers walk nodes a locked writer may be mutating; the
// version validation discards anything torn, but under the C++ memory
// model the racing loads/stores themselves must be atomic to be defined
// (TSan flags the plain versions). Relaxed atomic_ref keeps both sides
// defined and compiles to ordinary loads/stores on x86-64.
template <typename T>
T RelaxedLoad(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}

template <typename T>
void RelaxedStore(T& field, T v) {
  std::atomic_ref<T>(field).store(v, std::memory_order_relaxed);
}

// Child-pointer publication needs release/acquire: a reader that wins the
// race to a freshly spliced-in node must see its constructed fields, not
// just a valid pointer.
template <typename T>
T AcquireLoad(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_acquire);
}

template <typename T>
void ReleaseStore(T& field, T v) {
  std::atomic_ref<T>(field).store(v, std::memory_order_release);
}

// ExponentialSearchLowerBound with every slot access relaxed-atomic: the
// gallop runs against an array a lock-holding writer may be shifting. Torn
// values can misdirect the search (the caller discards the result when the
// node version fails to validate) but never break termination or bounds —
// lo/hi move monotonically and stay inside [0, n].
size_t OlcExponentialSearchLowerBound(const Key* data, size_t n, size_t hint,
                                      Key key) {
  if (n == 0) return 0;
  if (hint >= n) hint = n - 1;
  size_t lo;
  size_t hi;
  if (RelaxedLoad(data[hint]) >= key) {
    // Gallop left.
    size_t step = 1;
    hi = hint;
    lo = hint;
    while (lo > 0 && RelaxedLoad(data[lo]) >= key) {
      hi = lo;
      lo = (lo >= step) ? lo - step : 0;
      step *= 2;
    }
    ++hi;  // data[hi-1] >= key, search in [lo, hi).
  } else {
    // Gallop right.
    size_t step = 1;
    lo = hint + 1;
    hi = hint + 1;
    while (hi < n && RelaxedLoad(data[hi]) < key) {
      lo = hi + 1;
      hi = std::min(n, hi + step);
      step *= 2;
    }
  }
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (RelaxedLoad(data[mid]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void AddRetrainStats(IndexStats& s, uint64_t nanos) {
  std::atomic_ref<size_t>(s.retrain_count)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(s.retrain_nanos)
      .fetch_add(nanos, std::memory_order_relaxed);
}

void AddMovedKeys(IndexStats& s, uint64_t n) {
  std::atomic_ref<uint64_t>(s.moved_keys)
      .fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

struct Alex::Node {
  VersionLock lock;
  // Set (under the write lock) when the node has been replaced by an SMO;
  // readers holding a pointer to it restart from the root. The node stays
  // readable until the epoch manager reclaims it.
  std::atomic<bool> obsolete{false};
  const bool is_leaf;
  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct Alex::DataNode : Alex::Node {
  DataNode() : Node(true) {}

  // model / capacity and the three array *buffers* are immutable once the
  // node is published (SMOs replace the whole node); array *contents* are
  // mutated only by the lock holder and read with relaxed atomics.
  LinearModel model;  // key -> slot in [0, capacity).
  std::vector<Key> slots;      // Gap slots hold their right neighbor's key.
  std::vector<Value> values;
  std::vector<uint8_t> occ;    // 1 = slot holds a live pair.
  size_t capacity = 0;
  size_t count = 0;            // lock holder only
  std::atomic<DataNode*> prev{nullptr};
  std::atomic<DataNode*> next{nullptr};

  // First slot with slots[i] >= key, starting the exponential search from
  // the model's prediction. Plain-load version for the write-lock holder.
  size_t LowerBoundSlot(Key key) const {
    size_t hint = model.PredictClamped(key, capacity);
    return ExponentialSearchLowerBound(slots.data(), capacity, hint, key);
  }
  // Relaxed-atomic version for optimistic readers.
  size_t LowerBoundSlotOlc(Key key) const {
    size_t hint = model.PredictClamped(key, capacity);
    return OlcExponentialSearchLowerBound(slots.data(), capacity, hint, key);
  }
};

struct Alex::InnerNode : Alex::Node {
  InnerNode() : Node(false) {}
  LinearModel model;  // key -> child slot; immutable after build.
  std::vector<Node*> children;  // fixed size; slots swapped under the lock
};

struct Alex::PathEntry {
  InnerNode* node;
  uint64_t version;
  size_t slot;
};

// Node has no virtual destructor (keeping nodes vtable-free matters for
// cache behaviour), so deletes always downcast to the concrete type —
// deleting through the base pointer would be undefined behaviour.

Alex::~Alex() { Clear(); }

void Alex::Clear() {
  // Quiescent-only (destruction, BulkLoad): no guard may be active.
  Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) return;
  std::vector<Node*> stack{root};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      delete static_cast<DataNode*>(n);
    } else {
      auto* inner = static_cast<InnerNode*>(n);
      // Children can repeat (ALEX shares pointers across slots); only
      // push each distinct child once — repeats are always adjacent.
      Node* last = nullptr;
      for (Node* c : inner->children) {
        if (c != last) stack.push_back(c);
        last = c;
      }
      delete inner;
    }
  }
  root_.store(nullptr, std::memory_order_release);
  size_.store(0, std::memory_order_relaxed);
}

Alex::DataNode* Alex::BuildDataNode(const KeyValue* data,
                                    size_t count) const {
  auto* node = new DataNode();
  node->count = count;
  node->capacity = std::max<size_t>(
      16, static_cast<size_t>(std::ceil(static_cast<double>(count) /
                                        config_.init_density)));
  node->slots.assign(node->capacity, kSentinel);
  node->values.assign(node->capacity, 0);
  node->occ.assign(node->capacity, 0);
  if (count > 0) {
    std::vector<Key> keys(count);
    for (size_t i = 0; i < count; ++i) keys[i] = data[i].key;
    node->model = FitLeastSquares(keys.data(), count);
    if (count > 1) {
      node->model.Expand(static_cast<double>(node->capacity) /
                         static_cast<double>(count));
    }
    // Model-based placement (LSA-gap): each key goes to its predicted slot
    // or the next free one, keeping order.
    size_t next_free = 0;
    for (size_t i = 0; i < count; ++i) {
      size_t pred = node->model.PredictClamped(data[i].key, node->capacity);
      size_t slot = std::max(pred, next_free);
      size_t max_slot = node->capacity - (count - i);
      if (slot > max_slot) slot = max_slot;
      node->slots[slot] = data[i].key;
      node->values[slot] = data[i].value;
      node->occ[slot] = 1;
      next_free = slot + 1;
    }
    // Fill gap slots with their right neighbor's key (sorted invariant).
    Key carry = kSentinel;
    for (size_t i = node->capacity; i-- > 0;) {
      if (node->occ[i]) {
        carry = node->slots[i];
      } else {
        node->slots[i] = carry;
      }
    }
  }
  return node;
}

Alex::DataNode* Alex::CloneForAppend(const DataNode* node) const {
  auto* n2 = new DataNode();
  n2->model = node->model;
  n2->capacity = node->capacity + node->capacity / 2 + 16;
  n2->count = node->count;
  n2->slots.assign(n2->capacity, kSentinel);
  n2->values.assign(n2->capacity, 0);
  n2->occ.assign(n2->capacity, 0);
  std::copy(node->slots.begin(), node->slots.end(), n2->slots.begin());
  std::copy(node->values.begin(), node->values.end(), n2->values.begin());
  std::copy(node->occ.begin(), node->occ.end(), n2->occ.begin());
  // Old tail gaps carried kSentinel already, so the sorted-fill invariant
  // holds across the grown tail without touching anything.
  return n2;
}

Alex::Node* Alex::BuildSubtree(const KeyValue* data, size_t count) {
  if (count <= config_.target_leaf_keys) {
    return BuildDataNode(data, count);
  }
  // Fanout: enough children to bring each near the target size, capped.
  size_t want = count / config_.target_leaf_keys;
  size_t fanout = std::bit_ceil(std::max<size_t>(2, want));
  fanout = std::min(fanout, config_.max_fanout);

  std::vector<Key> keys(count);
  for (size_t i = 0; i < count; ++i) keys[i] = data[i].key;
  LinearModel model = FitLeastSquares(keys.data(), count);
  model.Expand(static_cast<double>(fanout) / static_cast<double>(count));
  // Predictions are monotone in the key, so the range stays in one child
  // iff its first and last key share one. That happens on clusters that
  // are narrow next to their keys' magnitude (slope * key + intercept in
  // double cannot tell them apart), and recursing would rebuild the same
  // range forever. A data node takes such a range whole: its lookups
  // search exponentially from the (equally flat) prediction.
  if (model.PredictClamped(data[0].key, fanout) ==
      model.PredictClamped(data[count - 1].key, fanout)) {
    return BuildDataNode(data, count);
  }

  auto* inner = new InnerNode();
  inner->model = model;
  inner->children.resize(fanout);

  size_t begin = 0;
  for (size_t c = 0; c < fanout; ++c) {
    size_t end = begin;
    while (end < count &&
           inner->model.PredictClamped(data[end].key, fanout) == c) {
      ++end;
    }
    inner->children[c] = BuildSubtree(data + begin, end - begin);
    begin = end;
  }
  return inner;
}

void Alex::BulkLoad(std::span<const KeyValue> data) {
  // Single-threaded phase by contract (recovery / initial load).
  Clear();
  update_stats_ = IndexStats{};
  Node* root = BuildSubtree(data.data(), data.size());
  size_.store(data.size(), std::memory_order_relaxed);

  // Link the data-node chain in key order for scans (DFS, left to right).
  DataNode* prev = nullptr;
  std::vector<std::pair<Node*, size_t>> walk{{root, 0}};
  while (!walk.empty()) {
    auto& [n, idx] = walk.back();
    if (n->is_leaf) {
      auto* d = static_cast<DataNode*>(n);
      d->prev.store(prev, std::memory_order_relaxed);
      if (prev != nullptr) prev->next.store(d, std::memory_order_relaxed);
      prev = d;
      walk.pop_back();
      continue;
    }
    auto* inner = static_cast<InnerNode*>(n);
    // Skip repeated pointers (possible only after splits, but be safe).
    while (idx < inner->children.size() &&
           idx > 0 && inner->children[idx] == inner->children[idx - 1]) {
      ++idx;
    }
    if (idx >= inner->children.size()) {
      walk.pop_back();
      continue;
    }
    Node* child = inner->children[idx];
    ++idx;
    walk.push_back({child, 0});
  }
  root_.store(root, std::memory_order_release);
}

Alex::DataNode* Alex::DescendOlc(Key key, std::vector<PathEntry>* path,
                                 uint64_t* leaf_version) const {
  Node* node = root_.load(std::memory_order_acquire);
  if (node == nullptr) return nullptr;
  bool ok = false;
  uint64_t v = node->lock.ReadLock(&ok);
  if (!ok || node->obsolete.load(std::memory_order_acquire)) return nullptr;
  while (!node->is_leaf) {
    auto* inner = static_cast<InnerNode*>(node);
    size_t c = inner->model.PredictClamped(key, inner->children.size());
    Node* child = AcquireLoad(inner->children[c]);
    // The child pointer is only trustworthy if no writer locked the inner
    // node between our ReadLock and now.
    if (!inner->lock.Validate(v)) return nullptr;
    if (path != nullptr) path->push_back({inner, v, c});
    node = child;
    v = node->lock.ReadLock(&ok);
    if (!ok || node->obsolete.load(std::memory_order_acquire)) {
      return nullptr;
    }
  }
  *leaf_version = v;
  return static_cast<DataNode*>(node);
}

bool Alex::Get(Key key, Value* value) const {
  EpochGuard guard;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0 && (attempt & 63) == 0) std::this_thread::yield();
    if (root_.load(std::memory_order_acquire) == nullptr) return false;
    uint64_t v = 0;
    DataNode* node = DescendOlc(key, nullptr, &v);
    if (node == nullptr) continue;
    size_t slot = node->LowerBoundSlotOlc(key);
    while (slot < node->capacity &&
           RelaxedLoad(node->slots[slot]) == key &&
           RelaxedLoad(node->occ[slot]) == 0) {
      ++slot;  // Skip gap slots carrying the key as fill value.
    }
    bool found = false;
    Value out = 0;
    if (slot < node->capacity && RelaxedLoad(node->occ[slot]) != 0 &&
        RelaxedLoad(node->slots[slot]) == key) {
      found = true;
      out = RelaxedLoad(node->values[slot]);
    }
    if (!node->lock.Validate(v)) continue;  // torn read; retry
    if (found) *value = out;
    return found;
  }
}

bool Alex::SmoExpand(DataNode* node, const std::vector<PathEntry>& path,
                     bool append_only) {
  Timer timer;
  DataNode* n2;
  if (append_only) {
    n2 = CloneForAppend(node);
  } else {
    std::vector<KeyValue> pairs;
    pairs.reserve(node->count);
    for (size_t i = 0; i < node->capacity; ++i) {
      if (node->occ[i]) pairs.push_back({node->slots[i], node->values[i]});
    }
    n2 = BuildDataNode(pairs.data(), pairs.size());
  }

  // Lock the structural neighborhood with try-locks only — we already hold
  // a node lock, so waiting here could deadlock against a neighbor's SMO.
  InnerNode* parent = nullptr;
  if (!path.empty()) {
    parent = path.back().node;
    if (!parent->lock.Upgrade(path.back().version)) {
      delete n2;
      node->lock.WriteUnlock();
      return false;
    }
  }
  DataNode* left_nb = node->prev.load(std::memory_order_acquire);
  DataNode* right_nb = node->next.load(std::memory_order_acquire);
  if (left_nb != nullptr && !left_nb->lock.TryWriteLock()) {
    if (parent != nullptr) parent->lock.WriteUnlock();
    delete n2;
    node->lock.WriteUnlock();
    return false;
  }
  if (right_nb != nullptr && !right_nb->lock.TryWriteLock()) {
    if (left_nb != nullptr) left_nb->lock.WriteUnlock();
    if (parent != nullptr) parent->lock.WriteUnlock();
    delete n2;
    node->lock.WriteUnlock();
    return false;
  }

  n2->prev.store(left_nb, std::memory_order_relaxed);
  n2->next.store(right_nb, std::memory_order_relaxed);
  if (parent != nullptr) {
    // Contiguous slot range in the parent pointing at `node`.
    size_t fan = parent->children.size();
    size_t slot = path.back().slot;
    size_t lo = slot;
    while (lo > 0 && parent->children[lo - 1] == node) --lo;
    size_t hi = slot + 1;
    while (hi < fan && parent->children[hi] == node) ++hi;
    for (size_t i = lo; i < hi; ++i) {
      ReleaseStore(parent->children[i], static_cast<Node*>(n2));
    }
    parent->lock.WriteUnlock();
  } else {
    // `node` is the root: we hold its lock and it is not obsolete, so no
    // other SMO can have swapped the root since our descent.
    root_.store(n2, std::memory_order_release);
  }
  if (left_nb != nullptr) {
    left_nb->next.store(n2, std::memory_order_release);
    left_nb->lock.WriteUnlock();
  }
  if (right_nb != nullptr) {
    right_nb->prev.store(n2, std::memory_order_release);
    right_nb->lock.WriteUnlock();
  }
  node->obsolete.store(true, std::memory_order_release);
  node->lock.WriteUnlock();
  EpochManager::Global().Retire(node);
  AddRetrainStats(update_stats_, timer.ElapsedNanos());
  return true;
}

bool Alex::SmoSplit(DataNode* node, const std::vector<PathEntry>& path) {
  Timer timer;
  InnerNode* parent = nullptr;
  if (!path.empty()) {
    parent = path.back().node;
    if (!parent->lock.Upgrade(path.back().version)) {
      node->lock.WriteUnlock();
      return false;
    }
  }
  DataNode* left_nb = node->prev.load(std::memory_order_acquire);
  DataNode* right_nb = node->next.load(std::memory_order_acquire);
  if (left_nb != nullptr && !left_nb->lock.TryWriteLock()) {
    if (parent != nullptr) parent->lock.WriteUnlock();
    node->lock.WriteUnlock();
    return false;
  }
  if (right_nb != nullptr && !right_nb->lock.TryWriteLock()) {
    if (left_nb != nullptr) left_nb->lock.WriteUnlock();
    if (parent != nullptr) parent->lock.WriteUnlock();
    node->lock.WriteUnlock();
    return false;
  }
  // Every lock is held — from here the split cannot fail.

  std::vector<KeyValue> pairs;
  pairs.reserve(node->count);
  for (size_t i = 0; i < node->capacity; ++i) {
    if (node->occ[i]) pairs.push_back({node->slots[i], node->values[i]});
  }

  DataNode* left = nullptr;
  DataNode* right = nullptr;
  // Chain-splice the replacements between the (locked) old neighbors. The
  // neighbors' own next/prev pointers are swung after publication below.
  auto splice_chain = [&]() {
    left->prev.store(left_nb, std::memory_order_relaxed);
    left->next.store(right, std::memory_order_relaxed);
    right->prev.store(left, std::memory_order_relaxed);
    right->next.store(right_nb, std::memory_order_relaxed);
  };
  auto build_two_way = [&]() -> InnerNode* {
    // Grow the tree locally with a 2-way inner node (this asymmetry —
    // deepening only hard regions — is ALEX's ATS structure).
    auto* inner = new InnerNode();
    std::vector<Key> keys(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) keys[i] = pairs[i].key;
    inner->model = FitLeastSquares(keys.data(), keys.size());
    inner->model.Expand(2.0 / static_cast<double>(pairs.size()));
    inner->children.resize(2);
    size_t mid = 0;
    while (mid < pairs.size() &&
           inner->model.PredictClamped(pairs[mid].key, 2) == 0) {
      ++mid;
    }
    left = BuildDataNode(pairs.data(), mid);
    right = BuildDataNode(pairs.data() + mid, pairs.size() - mid);
    inner->children[0] = left;
    inner->children[1] = right;
    return inner;
  };

  if (parent == nullptr) {
    InnerNode* inner = build_two_way();
    splice_chain();
    root_.store(inner, std::memory_order_release);
  } else {
    size_t fan = parent->children.size();
    size_t slot = path.back().slot;
    size_t lo = slot;
    while (lo > 0 && parent->children[lo - 1] == node) --lo;
    size_t hi = slot + 1;
    while (hi < fan && parent->children[hi] == node) ++hi;
    if (hi - lo >= 2) {
      // Split sideways at a parent slot boundary: slots [lo, c) -> left,
      // [c, hi) -> right. Partition with the parent's own routing so
      // descent and the split agree exactly (no floating-point boundary
      // inversion).
      size_t c = (lo + hi) / 2;
      size_t mid = 0;
      while (mid < pairs.size() &&
             parent->model.PredictClamped(pairs[mid].key, fan) < c) {
        ++mid;
      }
      left = BuildDataNode(pairs.data(), mid);
      right = BuildDataNode(pairs.data() + mid, pairs.size() - mid);
      splice_chain();
      for (size_t i = lo; i < c; ++i) {
        ReleaseStore(parent->children[i], static_cast<Node*>(left));
      }
      for (size_t i = c; i < hi; ++i) {
        ReleaseStore(parent->children[i], static_cast<Node*>(right));
      }
    } else {
      InnerNode* inner = build_two_way();
      splice_chain();
      ReleaseStore(parent->children[slot], static_cast<Node*>(inner));
    }
    parent->lock.WriteUnlock();
  }
  if (left_nb != nullptr) {
    left_nb->next.store(left, std::memory_order_release);
    left_nb->lock.WriteUnlock();
  }
  if (right_nb != nullptr) {
    right_nb->prev.store(right, std::memory_order_release);
    right_nb->lock.WriteUnlock();
  }
  node->obsolete.store(true, std::memory_order_release);
  node->lock.WriteUnlock();
  EpochManager::Global().Retire(node);
  AddRetrainStats(update_stats_, timer.ElapsedNanos());
  return true;
}

bool Alex::Insert(Key key, Value value) {
  EpochGuard guard;
  std::vector<PathEntry> path;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0 && (attempt & 63) == 0) std::this_thread::yield();
    path.clear();
    if (root_.load(std::memory_order_acquire) == nullptr) {
      KeyValue kv{key, value};
      DataNode* leaf = BuildDataNode(&kv, 1);
      Node* expected = nullptr;
      if (root_.compare_exchange_strong(expected, leaf,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      delete leaf;  // lost the race; another root exists now
      continue;
    }
    uint64_t v = 0;
    DataNode* node = DescendOlc(key, &path, &v);
    if (node == nullptr) continue;
    if (!node->lock.Upgrade(v)) continue;
    // --- `node` is write-locked and cannot be obsolete (marking it bumps
    // the version, which would have failed the Upgrade). Plain loads are
    // fine for the lock holder; every store must be a relaxed atomic
    // because optimistic readers race with it.

    size_t slot = node->LowerBoundSlot(key);
    while (slot < node->capacity && node->slots[slot] == key &&
           !node->occ[slot]) {
      ++slot;
    }
    if (slot < node->capacity && node->occ[slot] &&
        node->slots[slot] == key) {
      RelaxedStore(node->values[slot], value);
      node->lock.WriteUnlock();
      return true;
    }

    if (node->count == node->capacity) {
      // No gap anywhere: retrain (publish a replacement), then retry.
      if (node->count < config_.max_data_node_keys) {
        SmoExpand(node, path, /*append_only=*/false);
      } else {
        SmoSplit(node, path);
      }
      continue;  // the SMO released every lock, success or not
    }

    if (slot == node->capacity) {
      // Append beyond the node's max key: take the first tail gap, or
      // grow the tail (no model retrain) when it is exhausted. Without
      // this, sequential workloads shift an ever-growing dense suffix on
      // every insert.
      size_t tail = node->LowerBoundSlot(kSentinel);
      if (tail == node->capacity) {
        if (node->count >= config_.max_data_node_keys) {
          SmoSplit(node, path);
        } else {
          SmoExpand(node, path, /*append_only=*/true);
        }
        continue;
      }
      RelaxedStore(node->slots[tail], key);
      RelaxedStore(node->values[tail], value);
      RelaxedStore(node->occ[tail], uint8_t{1});
      ++node->count;
      size_.fetch_add(1, std::memory_order_relaxed);
      if (static_cast<double>(node->count) >=
          config_.max_density * static_cast<double>(node->capacity)) {
        // Preemptive retrain; if its try-locks lose a race the density
        // stays slightly over the trigger and the next insert retries it.
        if (node->count < config_.max_data_node_keys) {
          SmoExpand(node, path, /*append_only=*/false);
        } else {
          SmoSplit(node, path);
        }
        return true;  // the insert itself already succeeded
      }
      node->lock.WriteUnlock();
      return true;
    }

    // `slot` is the first position whose (fill) key is > key; insert just
    // before it, shifting at most to the nearest gap.
    if (slot > 0 && !node->occ[slot - 1]) {
      // A gap sits exactly where the key belongs.
      size_t g = slot - 1;
      RelaxedStore(node->slots[g], key);
      RelaxedStore(node->values[g], value);
      RelaxedStore(node->occ[g], uint8_t{1});
      for (size_t j = g; j-- > 0 && !node->occ[j];) {
        RelaxedStore(node->slots[j], key);
      }
    } else {
      // Locate the nearest gap on each side.
      size_t right_gap = slot;
      while (right_gap < node->capacity && node->occ[right_gap]) ++right_gap;
      // Scan left no further than the right gap's distance: a farther
      // left gap would never be chosen, and an unbounded scan makes dense
      // append runs quadratic.
      size_t left_gap = kSentinel;
      if (slot > 0) {
        size_t max_steps = right_gap >= node->capacity
                               ? slot
                               : right_gap - slot + 1;
        size_t j = slot - 1;
        for (size_t step = 0; step <= max_steps; ++step) {
          if (!node->occ[j]) {
            left_gap = j;
            break;
          }
          if (j == 0) break;
          --j;
        }
      }
      bool use_right;
      if (right_gap >= node->capacity) {
        use_right = false;
      } else if (left_gap == kSentinel) {
        use_right = true;
      } else {
        use_right = (right_gap - slot) <= (slot - left_gap);
      }
      if (use_right) {
        // Shift [slot, right_gap) one right; insert at slot.
        for (size_t i = right_gap; i > slot; --i) {
          RelaxedStore(node->slots[i], node->slots[i - 1]);
          RelaxedStore(node->values[i], node->values[i - 1]);
          RelaxedStore(node->occ[i], node->occ[i - 1]);
        }
        RelaxedStore(node->slots[slot], key);
        RelaxedStore(node->values[slot], value);
        RelaxedStore(node->occ[slot], uint8_t{1});
        AddMovedKeys(update_stats_, right_gap - slot);
      } else {
        // Shift (left_gap, slot) one left; insert at slot-1.
        for (size_t i = left_gap; i + 1 < slot; ++i) {
          RelaxedStore(node->slots[i], node->slots[i + 1]);
          RelaxedStore(node->values[i], node->values[i + 1]);
          RelaxedStore(node->occ[i], node->occ[i + 1]);
        }
        RelaxedStore(node->slots[slot - 1], key);
        RelaxedStore(node->values[slot - 1], value);
        RelaxedStore(node->occ[slot - 1], uint8_t{1});
        AddMovedKeys(update_stats_, slot - 1 - left_gap);
        // Gap fill slots left of left_gap keep their invariant because the
        // key now at left_gap equals the old key at left_gap + 1 — except
        // when left_gap had unoccupied neighbors, whose fill must follow.
        for (size_t j = left_gap; j-- > 0 && !node->occ[j];) {
          RelaxedStore(node->slots[j], node->slots[left_gap]);
        }
      }
    }
    ++node->count;
    size_.fetch_add(1, std::memory_order_relaxed);

    if (static_cast<double>(node->count) >=
        config_.max_density * static_cast<double>(node->capacity)) {
      if (node->count < config_.max_data_node_keys) {
        SmoExpand(node, path, /*append_only=*/false);
      } else {
        SmoSplit(node, path);
      }
      return true;
    }
    node->lock.WriteUnlock();
    return true;
  }
}

size_t Alex::Scan(Key from, size_t count, std::vector<KeyValue>* out) const {
  if (count == 0) return 0;
  EpochGuard guard;
  size_t copied = 0;
  std::vector<KeyValue> staged;  // emitted only after version validation
  int attempt = 0;
  while (copied < count) {
    if (++attempt > 1 && (attempt & 63) == 0) std::this_thread::yield();
    if (root_.load(std::memory_order_acquire) == nullptr) break;
    uint64_t v = 0;
    DataNode* node = DescendOlc(from, nullptr, &v);
    if (node == nullptr) continue;
    bool redescend = false;
    bool first = true;
    while (node != nullptr && copied < count) {
      staged.clear();
      size_t cap = node->capacity;
      size_t slot = (first && cap > 0) ? node->LowerBoundSlotOlc(from) : 0;
      for (; slot < cap && staged.size() < count - copied; ++slot) {
        if (RelaxedLoad(node->occ[slot]) != 0) {
          Key k = RelaxedLoad(node->slots[slot]);
          if (k >= from) {
            staged.push_back({k, RelaxedLoad(node->values[slot])});
          }
        }
      }
      DataNode* next = node->next.load(std::memory_order_acquire);
      if (!node->lock.Validate(v)) {
        redescend = true;  // torn read; resume the descent from `from`
        break;
      }
      out->insert(out->end(), staged.begin(), staged.end());
      copied += staged.size();
      // Keys are unique, so the key after the last emitted one is the
      // exact resume point if a later node forces a re-descent.
      if (!staged.empty()) from = staged.back().key + 1;
      first = false;
      if (next == nullptr) break;
      bool ok = false;
      v = next->lock.ReadLock(&ok);
      if (!ok || next->obsolete.load(std::memory_order_acquire)) {
        redescend = true;
        break;
      }
      node = next;
    }
    if (!redescend) break;
  }
  return copied;
}

// The size/stats accessors keep the quiescent contract (bench reporting
// between phases, conformance checks after a run) — they walk the tree
// with plain loads and must not race concurrent writers.
size_t Alex::IndexSizeBytes() const {
  // Inner structure + per-node models/bookkeeping. The gapped arrays hold
  // the data itself (ALEX is its own storage), so — like the paper's Table
  // III — they are charged to data, not to the index structure.
  size_t bytes = 0;
  Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) return 0;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      bytes += sizeof(DataNode);
    } else {
      const auto* inner = static_cast<const InnerNode*>(n);
      bytes += sizeof(InnerNode) + inner->children.size() * sizeof(Node*);
      const Node* last = nullptr;
      for (const Node* c : inner->children) {
        if (c != last) stack.push_back(c);
        last = c;
      }
    }
  }
  return bytes;
}

size_t Alex::TotalSizeBytes() const {
  size_t bytes = IndexSizeBytes();
  Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) return bytes;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      const auto* d = static_cast<const DataNode*>(n);
      bytes += d->capacity * (sizeof(Key) + sizeof(Value) + 1);
    } else {
      const auto* inner = static_cast<const InnerNode*>(n);
      const Node* last = nullptr;
      for (const Node* c : inner->children) {
        if (c != last) stack.push_back(c);
        last = c;
      }
    }
  }
  return bytes;
}

IndexStats Alex::Stats() const {
  IndexStats s = update_stats_;
  Node* root = root_.load(std::memory_order_acquire);
  if (root == nullptr) return s;
  size_t leaves = 0;
  size_t inners = 0;
  uint64_t depth_sum = 0;
  std::vector<std::pair<const Node*, size_t>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      ++leaves;
      depth_sum += depth;
    } else {
      ++inners;
      const auto* inner = static_cast<const InnerNode*>(n);
      const Node* last = nullptr;
      for (const Node* c : inner->children) {
        if (c != last) stack.push_back({c, depth + 1});
        last = c;
      }
    }
  }
  s.leaf_count = leaves;
  s.inner_count = inners;
  s.avg_depth = leaves == 0 ? 0
                            : static_cast<double>(depth_sum) /
                                  static_cast<double>(leaves);
  return s;
}

}  // namespace pieces

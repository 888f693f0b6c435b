#include "db/mvkv.h"

#include <algorithm>
#include <utility>

#include "db/engine.h"
#include "platform/spin.h"

namespace asl::db {

// Immutable BST node. Writes never rebalance: the initial data arrives
// through bulk_load, which builds the balanced tree (depth ceil(log2(n+1)))
// directly, and steady-state keys in the benchmarks are drawn at random, so
// depth stays logarithmic. A sorted put stream would instead degenerate into
// a chain — every get O(n), every path copy O(n) pool nodes — which is why
// initial loads go through bulk_load, never a put loop. The engine's
// observable behaviour (single writer, lock-free snapshot reads) does not
// depend on the tree shape. Raw child pointers: lifetime is managed by the
// epoch reclaimer, not refcounts — a node stays valid for as long as any
// pinned snapshot could reach it. `pool` points back at the owning freelist
// so the reclaimer's context-free Deleter can recycle the node (DESIGN.md
// §9) instead of deleting it.
struct MvKv::Snapshot::Node {
  std::uint64_t key;
  std::string value;
  const Node* left;
  const Node* right;
  MvKv::NodePool* pool;
};

namespace {

using Node = MvKv::Snapshot::Node;

// Leftmost node of a subtree (successor search for deletion).
const Node* leftmost(const Node* n) {
  while (n->left != nullptr) n = n->left;
  return n;
}

}  // namespace

MvKv::NodePool::~NodePool() {
  // The pool owns every node it ever handed out — the published tree, the
  // freelist, and anything the reclaimer drained back — so teardown is one
  // sweep over `all_`. No liveness question arises: ~MvKv destroys the
  // reclaimer (declared after the pool) first, and no snapshot can be live.
  for (Node* n : all_) delete n;
}

Node* MvKv::NodePool::try_acquire(std::uint64_t key, std::string_view value,
                                  const Node* left, const Node* right) {
  Node* n = nullptr;
  lock_.lock();
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  }
  lock_.unlock();
  if (n == nullptr) return nullptr;
  n->key = key;
  // assign() reuses the recycled node's string capacity: once the freelist
  // reaches equilibrium a put writes into storage that already exists.
  n->value.assign(value);
  n->left = left;
  n->right = right;
  return n;
}

Node* MvKv::NodePool::acquire(std::uint64_t key, std::string_view value,
                              const Node* left, const Node* right) {
  if (Node* n = try_acquire(key, value, left, right)) return n;
  // Grow by a chunk, not a node: a miss means outstanding nodes (live
  // tree + reclaimer backlog + in-flight path) hit a new high-water mark,
  // and the mark is approached stochastically — sweep timing depends on
  // reader pin interleavings. Overshooting it by a margin makes the next
  // miss need a mark `kGrowChunk` higher, so the population converges to
  // its (hard-bounded, see reclaim.h) fixed point in a handful of misses
  // instead of creeping up one node per miss for millions of requests.
  Node* spares[kGrowChunk - 1];
  for (std::size_t i = 0; i + 1 < kGrowChunk; ++i) {
    spares[i] = new Node{0, std::string(), nullptr, nullptr, this};
  }
  Node* n = new Node{key, std::string(value), left, right, this};
  lock_.lock();
  for (Node* spare : spares) {
    all_.push_back(spare);
    free_.push_back(spare);
  }
  all_.push_back(n);
  lock_.unlock();
  return n;
}

void MvKv::NodePool::release(Node* node) {
  lock_.lock();
  free_.push_back(node);
  lock_.unlock();
}

std::size_t MvKv::NodePool::total() const {
  lock_.lock();
  const std::size_t n = all_.size();
  lock_.unlock();
  return n;
}

std::size_t MvKv::NodePool::free_count() const {
  lock_.lock();
  const std::size_t n = free_.size();
  lock_.unlock();
  return n;
}

void MvKv::recycle_node(void* p) {
  Node* n = static_cast<Node*>(p);
  n->pool->release(n);
}

MvKv::MvKv(ReclaimConfig reclaim) : reclaimer_(reclaim) {}

MvKv::~MvKv() {
  // Destruction order does the work: ~EpochReclaimer (declared after the
  // pool) recycles every still-retired node into the freelist, then
  // ~NodePool deletes the backing storage of the whole node population —
  // published tree included, so no explicit tree teardown is needed here.
}

const Node* MvKv::insert(const Node* node, std::uint64_t key,
                         std::string_view value, bool& added,
                         std::vector<const Node*>& retired) {
  if (node == nullptr) {
    added = true;
    return fresh_node(key, value, nullptr, nullptr);
  }
  // Path copying: the original of every copied node is retired; subtrees
  // hanging off the path are shared with the previous version untouched.
  retired.push_back(node);
  if (key == node->key) {
    added = false;
    return fresh_node(key, value, node->left, node->right);
  }
  if (key < node->key) {
    return fresh_node(node->key, node->value,
                      insert(node->left, key, value, added, retired),
                      node->right);
  }
  return fresh_node(node->key, node->value, node->left,
                    insert(node->right, key, value, added, retired));
}

const Node* MvKv::remove(const Node* node, std::uint64_t key, bool& removed,
                         std::vector<const Node*>& retired) {
  if (node == nullptr) {
    removed = false;
    return nullptr;
  }
  if (key < node->key) {
    const Node* left = remove(node->left, key, removed, retired);
    if (!removed) return node;  // miss: old subtree returned unchanged
    retired.push_back(node);
    return fresh_node(node->key, node->value, left, node->right);
  }
  if (key > node->key) {
    const Node* right = remove(node->right, key, removed, retired);
    if (!removed) return node;
    retired.push_back(node);
    return fresh_node(node->key, node->value, node->left, right);
  }
  removed = true;
  retired.push_back(node);  // the unlinked match itself
  if (node->left == nullptr) return node->right;
  if (node->right == nullptr) return node->left;
  // Two children: replace with in-order successor, delete it from the right
  // (that recursion retires the successor's old path copies).
  const Node* succ = leftmost(node->right);
  bool dummy = false;
  const Node* right = remove(node->right, succ->key, dummy, retired);
  return fresh_node(succ->key, succ->value, node->left, right);
}

const Node* MvKv::build(std::span<const std::uint64_t> keys,
                        std::string_view value) {
  if (keys.empty()) return nullptr;
  // Element size/2 roots the subrange: the median-first rule, so a tree
  // built here has exactly the shape inserting each subrange's middle key
  // before its halves would give.
  const std::size_t mid = keys.size() / 2;
  const Node* left = build(keys.first(mid), value);
  const Node* right = build(keys.subspan(mid + 1), value);
  // Straight to the pool, not fresh_node: the build retires nothing, so a
  // reclaim wait on a freelist miss would have nothing to wait for.
  return pool_.acquire(keys[mid], value, left, right);
}

void MvKv::publish(const Node* new_root, std::vector<const Node*>& retired) {
  // Release-publish the new version first: once a reader can load new_root
  // it can no longer reach the retired path copies, so handing them to the
  // reclaimer afterwards tags them with an epoch no earlier than any pin
  // that could still be traversing the old version.
  root_.store(new_root, std::memory_order_release);
  // recycle_node, not the deleting default: a reclaimed node goes back to
  // the pool's freelist, which is what makes steady-state puts heap-free.
  for (const Node* n : retired) {
    reclaimer_.retire(const_cast<Node*>(n), &MvKv::recycle_node);
  }
  retired.clear();
}

MvKv::Snapshot::Node* MvKv::fresh_node(std::uint64_t key,
                                       std::string_view value,
                                       const Node* left, const Node* right) {
  if (Node* n = pool_.try_acquire(key, value, left, right)) return n;
  // Grace-period wait (header comment): the retirees of previous puts are
  // the supply this write should draw on; they only need the epoch to turn
  // over twice. A reader pinned across one try_advance unpins within its
  // (microsecond) read, so the bounded spin resolves the miss without the
  // heap in all but pathological schedules. A caller that holds its own pin
  // (a snapshot taken on this thread) lets the epoch advance at most once,
  // so after one round only the heap can help.
  const int rounds = reclaimer_.pinned() ? 1 : kReclaimSpinRounds;
  SpinWait waiter;
  for (int i = 0; i < rounds; ++i) {
    reclaimer_.try_advance();
    if (reclaimer_.sweep() > 0) {
      if (Node* n = pool_.try_acquire(key, value, left, right)) return n;
    }
    waiter.pause();
  }
  return pool_.acquire(key, value, left, right);
}

void MvKv::maybe_replenish() {
  // A caller that holds its own pin lets the epoch advance at most once, so
  // the rounds would walk the whole backlog for nothing (fresh_node's one
  // round covers that case).
  if (pool_.free_count() >= kFreelistLowWater || reclaimer_.pinned()) return;
  // Two rounds: retirees tagged one epoch back need a single advance to
  // leave their grace period, the freshest need two. A round can stall if a
  // reader is pinned at the pre-advance epoch right now; then the next
  // write's call retries, and the chunked pool growth is the backstop.
  for (int round = 0; round < 2; ++round) {
    reclaimer_.try_advance();
    reclaimer_.sweep();
    if (pool_.free_count() >= kFreelistLowWater) return;
  }
}

void MvKv::put(std::uint64_t key, std::string_view value) {
  LockGuard<AslMutex<McsLock>> writer(writer_lock_);
  maybe_replenish();
  bool added = false;
  retire_scratch_.clear();
  const Node* new_root = insert(root_.load(std::memory_order_relaxed), key,
                                value, added, retire_scratch_);
  if (added) size_.fetch_add(1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_relaxed);
  publish(new_root, retire_scratch_);
}

void MvKv::bulk_load(std::span<const std::uint64_t> keys,
                     std::string_view value) {
  LockGuard<AslMutex<McsLock>> writer(writer_lock_);
  require_bulk_load_contract("mvcc", size(), keys);
  if (keys.empty()) return;
  const Node* root = build(keys, value);
  size_.store(keys.size(), std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_relaxed);
  // One release-publish of a tree no reader has seen: nothing to retire.
  root_.store(root, std::memory_order_release);
}

bool MvKv::erase(std::uint64_t key) {
  LockGuard<AslMutex<McsLock>> writer(writer_lock_);
  maybe_replenish();
  bool removed = false;
  retire_scratch_.clear();
  const Node* new_root = remove(root_.load(std::memory_order_relaxed), key,
                                removed, retire_scratch_);
  if (removed) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    version_.fetch_add(1, std::memory_order_relaxed);
    publish(new_root, retire_scratch_);
  }
  return removed;
}

MvKv::Snapshot MvKv::snapshot() const {
  Snapshot snap;
  // Pin first, then load: any version the load can observe was published
  // before the pin resolved, so none of its nodes can complete the
  // two-epoch grace period while this snapshot is alive.
  snap.guard_ = EpochReclaimer::Guard(reclaimer_);
  snap.root_ = root_.load(std::memory_order_acquire);
  snap.version_ = version_.load(std::memory_order_acquire);
  return snap;
}

std::optional<std::string> MvKv::Snapshot::get(std::uint64_t key) const {
  const Node* node = root_;
  while (node != nullptr) {
    if (key == node->key) return node->value;
    node = key < node->key ? node->left : node->right;
  }
  return std::nullopt;
}

std::vector<std::pair<std::uint64_t, std::string>> MvKv::Snapshot::range(
    std::uint64_t lo, std::uint64_t hi) const {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  // Explicit stack in-order walk with pruning.
  std::vector<const Node*> stack;
  const Node* node = root_;
  while (node != nullptr || !stack.empty()) {
    while (node != nullptr) {
      if (node->key >= lo) {
        stack.push_back(node);
        node = node->left;
      } else {
        node = node->right;
      }
    }
    if (stack.empty()) break;
    node = stack.back();
    stack.pop_back();
    if (node->key > hi) break;
    out.emplace_back(node->key, node->value);
    node = node->right;
  }
  return out;
}

std::optional<std::string> MvKv::get(std::uint64_t key) const {
  return snapshot().get(key);
}

std::vector<std::pair<std::uint64_t, std::string>> MvKv::range(
    std::uint64_t lo, std::uint64_t hi) const {
  return snapshot().range(lo, hi);
}

std::size_t MvKv::size() const {
  return size_.load(std::memory_order_acquire);
}

std::uint64_t MvKv::version() const {
  return version_.load(std::memory_order_acquire);
}

std::size_t MvKv::height() const {
  const Snapshot snap = snapshot();
  std::size_t height = 0;
  // Explicit stack: a degenerate (put-built sorted) tree is as deep as it
  // is large, too deep to recurse over safely.
  std::vector<std::pair<const Node*, std::size_t>> stack;
  if (snap.root_ != nullptr) stack.emplace_back(snap.root_, 1);
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    height = std::max(height, depth);
    if (node->left != nullptr) stack.emplace_back(node->left, depth + 1);
    if (node->right != nullptr) stack.emplace_back(node->right, depth + 1);
  }
  return height;
}

std::size_t MvKv::pool_total() const { return pool_.total(); }

std::size_t MvKv::pool_free() const { return pool_.free_count(); }

}  // namespace asl::db

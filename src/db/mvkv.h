// MvKv — multi-version copy-on-write KV store, the LMDB stand-in.
//
// Lock pattern (Table 1): a *global (single-writer) lock* held across each
// write transaction's copy-on-write path update; readers take no lock at
// all — they pin the published root through the epoch reclaimer and read
// the immutable version directly. Readers never block writers and vice
// versa, exactly like LMDB's MVCC B-tree, but where LMDB pins pages via a
// reader table, MvKv pins whole version trees via EpochReclaimer (asl/
// reclaim.h): an atomic root pointer published with release order, raw
// immutable BST nodes shared structurally across versions, and path-copied
// nodes retired to the reclaimer the moment the new root is published.
//
// The shared_ptr scheme this replaces put an atomic refcount bump/drop on
// every node a reader touched — cross-core cache-line traffic on the hot
// read path, plus a metadata lock around every root pin. Now a read is:
// pin (one uncontended store to a thread-private slot), traverse, unpin.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asl/libasl.h"
#include "asl/reclaim.h"
#include "platform/raw_spinlock.h"

namespace asl::db {

class MvKv {
 public:
  explicit MvKv(ReclaimConfig reclaim = {});
  ~MvKv();
  MvKv(const MvKv&) = delete;
  MvKv& operator=(const MvKv&) = delete;

  // Write transaction: insert/overwrite under the single-writer lock. The
  // value is a view (callers format into arena/stack buffers, DESIGN.md §9);
  // the path-copied nodes reuse pooled storage, so a put over a warmed
  // keyspace touches the heap zero times.
  void put(std::uint64_t key, std::string_view value);

  // Write transaction: delete. Returns true if the key existed.
  bool erase(std::uint64_t key);

  // Initial load (KvEngine::bulk_load's contract: the store is empty and
  // `keys` strictly ascending, else abort). Builds the balanced tree in
  // O(n) — each subrange's root is its element size/2 — and publishes it
  // once under the writer lock: no path copies, nothing retired.
  void bulk_load(std::span<const std::uint64_t> keys, std::string_view value);

  // Read transaction: pins the current root (epoch pin, no lock), then
  // reads lock-free.
  std::optional<std::string> get(std::uint64_t key) const;

  // Read transaction over a range, against one snapshot.
  std::vector<std::pair<std::uint64_t, std::string>> range(
      std::uint64_t lo, std::uint64_t hi) const;

  // Explicit snapshot handle for multi-read transactions. Holds an epoch
  // pin for its whole lifetime: every node reachable from root_ stays
  // allocated until the snapshot is destroyed, however many writes land in
  // the meantime. Movable, not copyable; destroy promptly — a long-lived
  // snapshot stalls reclamation of every version retired after it.
  class Snapshot {
   public:
    struct Node;  // definition in mvkv.cpp (immutable BST node)

    Snapshot() = default;
    Snapshot(Snapshot&&) = default;
    Snapshot& operator=(Snapshot&&) = default;

    std::optional<std::string> get(std::uint64_t key) const;
    std::vector<std::pair<std::uint64_t, std::string>> range(
        std::uint64_t lo, std::uint64_t hi) const;
    std::uint64_t version() const { return version_; }

   private:
    friend class MvKv;
    EpochReclaimer::Guard guard_;  // pin outlives every root_ dereference
    const Node* root_ = nullptr;
    std::uint64_t version_ = 0;
  };
  Snapshot snapshot() const;

  std::size_t size() const;
  std::uint64_t version() const;

  // Reclamation observables (tests/reclaim_test.cpp pins the backlog bound
  // against these).
  const EpochReclaimer& reclaimer() const { return reclaimer_; }

  // Node-pool observables (tests/alloc_test.cpp pins steady-state puts at
  // zero pool growth): how many nodes the pool ever created, and how many
  // currently sit on the freelist.
  std::size_t pool_total() const;
  std::size_t pool_free() const;

  // Node count on the longest root-to-leaf path of the current version (0
  // when empty): the cost of a get and the length of a put's path copy. A
  // full traversal — an observability call, not a hot-path one.
  std::size_t height() const;

 private:
  using Node = Snapshot::Node;

  // Node freelist (DESIGN.md §9). The copy-on-write path allocates d+1
  // nodes per put and retires d; recycling retired nodes through the
  // reclaimer's deleter closes the loop, so a warmed keyspace reaches an
  // equilibrium where every acquire is a freelist pop and the heap is never
  // touched. The pool owns every node it ever created (`all_`) and frees
  // them at teardown — which is why it is declared *before* reclaimer_:
  // the reclaimer's destructor drains pending retirees back into the
  // freelist, and only then may the pool destruct and delete the backing
  // storage. Spinlock-guarded: acquires run under writer_lock_, but
  // releases arrive from whichever thread's retire() crossed a sweep
  // boundary.
  class NodePool {
   public:
    // Nodes created per freelist miss (one returned, the rest banked):
    // over-provisioning past each high-water mark is what lets the pool
    // reach allocation-free equilibrium within a few warmup misses.
    static constexpr std::size_t kGrowChunk = 32;

    ~NodePool();
    Node* acquire(std::uint64_t key, std::string_view value, const Node* left,
                  const Node* right);
    // Freelist pop alone — nullptr on a miss, never touches the heap (so
    // the caller can try reclamation before conceding an allocation).
    Node* try_acquire(std::uint64_t key, std::string_view value,
                      const Node* left, const Node* right);
    void release(Node* node);
    std::size_t total() const;
    std::size_t free_count() const;

   private:
    mutable RawSpinLock lock_;
    std::vector<Node*> free_;  // guarded by lock_
    std::vector<Node*> all_;   // every node ever created; deleted at teardown
  };

  // The reclaimer Deleter that returns a node to its pool instead of
  // deleting it (Node carries the back-pointer; Deleter has no context arg).
  static void recycle_node(void* p);

  // Writer-side reclamation push, called (under writer_lock_) at the top of
  // every write transaction: when the freelist dips under this bound —
  // comfortably above the deepest path copy a put can need — advance the
  // epoch and sweep, so the write draws on grace-expired retirees instead
  // of growing the pool. Without it the pool's size converges only as
  // retire()'s batch-boundary sweeps happen to fire near backlog peaks,
  // i.e. stochastically — and every new high-water mark is a heap
  // allocation the zero-allocation audit would count.
  static constexpr std::size_t kFreelistLowWater = 64;
  void maybe_replenish();

  // Freelist acquire with a bounded reclaim-wait on a miss. An empty
  // freelist almost always means the nodes this write needs are retirees
  // still inside their grace period (every put retires a whole path copy),
  // not a genuinely larger working set — so before conceding a (counted)
  // chunk allocation, spin on advance+sweep: readers unpin in microseconds,
  // and the heap stays the supplier of last resort against a stuck pin.
  static constexpr int kReclaimSpinRounds = 256;
  Node* fresh_node(std::uint64_t key, std::string_view value,
                   const Node* left, const Node* right);

  // Copy-on-write helpers. Every node they copy or unlink is pushed onto
  // `retired` (the caller retires the batch after publishing the new
  // root); shared subtrees are never pushed.
  const Node* insert(const Node* node, std::uint64_t key,
                     std::string_view value, bool& added,
                     std::vector<const Node*>& retired);
  const Node* remove(const Node* node, std::uint64_t key, bool& removed,
                     std::vector<const Node*>& retired);
  const Node* build(std::span<const std::uint64_t> keys,
                    std::string_view value);
  void publish(const Node* new_root, std::vector<const Node*>& retired);

  mutable AslMutex<McsLock> writer_lock_;  // the single-writer global lock
  NodePool pool_;                          // MUST precede reclaimer_ (above)
  mutable EpochReclaimer reclaimer_;       // version-node grace periods
  std::atomic<const Node*> root_{nullptr};  // published root (release/acquire)
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::size_t> size_{0};
  std::vector<const Node*> retire_scratch_;  // guarded by writer_lock_
};

}  // namespace asl::db

#include "asl/reclaim.h"

#include <thread>

namespace asl {
namespace {

// Slot-state encoding: (announced_epoch << 1) | active. 0 == quiescent.
constexpr std::uint64_t kActiveBit = 1;

std::uint64_t encode(std::uint64_t epoch) {
  return (epoch << 1) | kActiveBit;
}

}  // namespace

EpochReclaimer::EpochReclaimer(ReclaimConfig config)
    : config_(config), slots_(kMaxThreads) {
  if (config_.batch == 0) config_.batch = 1;
}

EpochReclaimer::~EpochReclaimer() {
  // Single-threaded teardown contract: no live pins, no concurrent retires.
  // Everything still in a retired list is unreachable by now — free it.
  for (Slot& slot : slots_) {
    for (const Retired& r : slot.retired) r.del(r.ptr);
    slot.retired.clear();
  }
}

void EpochReclaimer::mark_used(Slot& slot) {
  if (!slot.used) {
    slot.used = true;
    // Room for two batches up front — the thread's in-flight batch plus
    // one its last sweep could not free yet — so the list's doublings
    // happen at first use, not in steady state, where the zero-allocation
    // audit (DESIGN.md §9) would count them.
    slot.lock.lock();
    slot.retired.reserve(2 * static_cast<std::size_t>(config_.batch));
    slot.lock.unlock();
    participants_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void EpochReclaimer::pin() {
  Slot& slot = self_slot();
  if (slot.nest++ > 0) return;  // nested: outer pin already announced
  mark_used(slot);
  // Announce the epoch we observe, then re-read: if the global epoch moved
  // between the read and the announcement, a concurrent try_advance may
  // have treated us as announcing a stale epoch. Re-announce until the
  // global epoch we published is the one still current — then no sweep can
  // free nodes retired in the epoch we read under. seq_cst on both sides
  // (here and in try_advance) makes the announce/scan ordering total.
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.state.store(encode(e), std::memory_order_seq_cst);
    const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
}

void EpochReclaimer::unpin() {
  Slot& slot = self_slot();
  if (--slot.nest > 0) return;
  slot.state.store(0, std::memory_order_seq_cst);
}

bool EpochReclaimer::pinned() const {
  return self_slot().nest > 0;
}

bool EpochReclaimer::try_advance() {
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  const std::uint32_t scan = thread_id_high_water();
  for (std::uint32_t i = 0; i < scan && i < kMaxThreads; ++i) {
    const std::uint64_t s = slots_[i].state.load(std::memory_order_seq_cst);
    if ((s & kActiveBit) != 0 && s != encode(e)) {
      return false;  // a reader is still inside an older epoch
    }
  }
  // Every active reader has announced e, so nothing can still hold a
  // reference into epoch e-1's retired set. CAS tolerates racing advancers.
  std::uint64_t expected = e;
  return global_epoch_.compare_exchange_strong(expected, e + 1,
                                               std::memory_order_seq_cst);
}

std::size_t EpochReclaimer::sweep_slot(Slot& slot, std::uint64_t current) {
  std::size_t freed = 0;
  slot.lock.lock();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < slot.retired.size(); ++i) {
    const Retired& r = slot.retired[i];
    if (r.epoch + 2 <= current) {
      r.del(r.ptr);
      ++freed;
    } else {
      slot.retired[keep++] = r;
    }
  }
  slot.retired.resize(keep);
  slot.lock.unlock();
  if (freed != 0) {
    backlog_.fetch_sub(freed, std::memory_order_acq_rel);
    freed_.fetch_add(freed, std::memory_order_acq_rel);
  }
  return freed;
}

std::size_t EpochReclaimer::sweep() {
  const std::uint64_t current = global_epoch_.load(std::memory_order_seq_cst);
  std::size_t freed = 0;
  const std::uint32_t scan = thread_id_high_water();
  for (std::uint32_t i = 0; i < scan && i < kMaxThreads; ++i) {
    freed += sweep_slot(slots_[i], current);
  }
  return freed;
}

void EpochReclaimer::retire(void* p, Deleter del) {
  Slot& slot = self_slot();
  mark_used(slot);
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  slot.lock.lock();
  slot.retired.push_back(Retired{p, del, e});
  slot.lock.unlock();
  backlog_.fetch_add(1, std::memory_order_acq_rel);
  // Monotone per-thread count, not the list size: sweeps shrink the list,
  // which would make a size-based trigger drift off the batch cadence.
  const std::uint64_t mine = ++slot.retire_seq;

  // Batch trigger: once this thread has accumulated a batch, try to turn
  // the epoch over, reclaim what became safe, and apply backpressure —
  // sweep until the domain-wide backlog is back at or under
  // batch * max(1, participants). The pressure loop runs only at batch
  // boundaries (between them the backlog can overshoot by at most one
  // in-flight batch per retiring thread): each failed advance means
  // waiting out a reader's scheduling quantum, and paying that on every
  // single retirement serializes writers against the reader schedule on
  // small hosts. Two escape hatches keep the loop from deadlocking:
  // (a) a caller that itself holds a pin can never help the epoch advance
  // by yielding, so it is exempt (its own pin blocks progress — the bound
  // resumes once it unpins); (b) the loop stops after two failed epoch
  // turns — an advance fails only while some reader is pinned inside an
  // older epoch, and on an oversubscribed host that reader may well be
  // descheduled for a whole quantum, so waiting it out would stall every
  // writer boundary. Best-effort then; the next boundary retries.
  if (mine % config_.batch != 0) return;
  try_advance();
  sweep();
  if (slot.nest > 0) return;
  const std::uint64_t bound = backlog_bound();
  int failed_turns = 0;
  for (int attempts = 0;
       backlog_.load(std::memory_order_acquire) > bound &&
       failed_turns < 2 && attempts < 64;
       ++attempts) {
    if (!try_advance()) {
      ++failed_turns;
      std::this_thread::yield();
    }
    sweep();
  }
}

}  // namespace asl

// LibASL public lock API — Algorithm 3 (asl_mutex_lock) over the
// reorderable lock plus the epoch feedback of Algorithm 2.
//
// The dispatch rule itself lives in exactly one place: DispatchPolicy
// (runtime.h). Both mutexes here template over the policy, and the
// simulator's Policy::kAsl consumes the same class, so real and simulated
// paths provably share the production dispatch code:
//   big core              -> lock_immediately (join FIFO queue now)
//   little core, no epoch -> lock_reorder(kMaxReorderWindow)  (default
//                            loose window: maximum throughput, still
//                            starvation-free)
//   little core, epoch    -> lock_reorder(current epoch's AIMD window)
//
// AslMutex is templated over the FIFO substrate (MCS by default; the paper:
// "the reorderable lock is built atop the MCS lock"); BlockingAslMutex is
// the oversubscription variant over pthread_mutex.
#pragma once

#include "platform/topology.h"
#include "locks/mcs.h"
#include "reorder/blocking_reorderable.h"
#include "reorder/reorderable.h"
#include "asl/epoch.h"
#include "asl/runtime.h"

namespace asl {

template <Lockable Fifo = McsLock, typename Policy = DispatchPolicy>
class AslMutex {
 public:
  AslMutex() = default;
  AslMutex(const AslMutex&) = delete;
  AslMutex& operator=(const AslMutex&) = delete;

  // Algorithm 3, via the shared policy. The window lookup is lazy: big
  // cores enqueue without touching epoch state.
  void lock() {
    Policy::lock(inner_, current_core_type(),
                 [] { return current_epoch_window(); });
  }

  bool try_lock() { return inner_.try_lock(); }
  void unlock() { inner_.unlock(); }
  bool is_free() const { return inner_.is_free(); }

  ReorderableLock<Fifo>& reorderable() { return inner_; }

 private:
  ReorderableLock<Fifo> inner_;
};

// Blocking variant for core-oversubscribed deployments (Bench-6).
template <typename Policy = DispatchPolicy>
class BasicBlockingAslMutex {
 public:
  BasicBlockingAslMutex() = default;
  BasicBlockingAslMutex(const BasicBlockingAslMutex&) = delete;
  BasicBlockingAslMutex& operator=(const BasicBlockingAslMutex&) = delete;

  void lock() {
    Policy::lock(inner_, current_core_type(),
                 [] { return current_epoch_window(); });
  }

  bool try_lock() { return inner_.try_lock(); }
  void unlock() { inner_.unlock(); }
  bool is_free() const { return inner_.is_free(); }

 private:
  BlockingReorderableLock<PthreadLock> inner_;
};

using BlockingAslMutex = BasicBlockingAslMutex<>;

static_assert(Lockable<AslMutex<McsLock>>);
static_assert(Lockable<BlockingAslMutex>);

// RAII epoch annotation (C++ sugar over epoch_start/epoch_end; Figure 6's
// two-line annotation becomes one declaration).
class EpochScope {
 public:
  EpochScope(int epoch_id, std::uint64_t slo_ns)
      : id_(epoch_id), slo_(slo_ns), use_registry_default_(false) {
    epoch_start(id_);
  }
  // Registry-default-SLO variant for epochs registered with EpochOptions.
  // Ends through the epoch_end(id) overload so an epoch without a default
  // SLO pops cleanly with no feedback (an slo of 0 would instead count
  // every epoch as a violation).
  explicit EpochScope(int epoch_id)
      : id_(epoch_id), slo_(0), use_registry_default_(true) {
    epoch_start(id_);
  }
  ~EpochScope() {
    if (use_registry_default_) {
      epoch_end(id_);
    } else {
      epoch_end(id_, slo_);
    }
  }
  EpochScope(const EpochScope&) = delete;
  EpochScope& operator=(const EpochScope&) = delete;

 private:
  int id_;
  std::uint64_t slo_;
  bool use_registry_default_;
};

}  // namespace asl

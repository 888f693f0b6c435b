// Condition-variable support for LibASL mutexes: its job is letting a
// thread wait while it holds an AslMutex / BlockingAslMutex (or any other
// Lockable that is not a pthread mutex). A plain std::mutex needs none of
// this — wait on a std::condition_variable bound to it, as the shard
// BoundedQueue's parking lot does (server/request_queue.h).
//
// Section 3.3: "the conditional variable is also supported by using the same
// technique in litl". The litl technique: since the application-visible lock
// is no longer a pthread_mutex_t, each condition variable keeps a private
// real pthread mutex; wait() acquires the private mutex, releases the LibASL
// mutex, blocks on the real pthread_cond_t against the private mutex, then
// reacquires the LibASL mutex before returning. signal/broadcast forward to
// the real condvar. The usual condition-variable contract (caller holds the
// LibASL mutex around wait; predicate re-checked in a loop) carries over
// unchanged.
#pragma once

#include <pthread.h>

#include <cstdint>

#include "locks/lock_concepts.h"
#include "platform/time.h"

namespace asl {

class CondVar {
 public:
  CondVar() {
    pthread_mutex_init(&shadow_mutex_, nullptr);
    pthread_cond_init(&cond_, nullptr);
  }
  ~CondVar() {
    pthread_cond_destroy(&cond_);
    pthread_mutex_destroy(&shadow_mutex_);
  }
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until signalled. `lock` must be held by the caller; it is
  // released while blocked and reacquired (through LibASL's ordering, i.e. a
  // little core re-enters via its reorder window) before returning.
  template <Lockable L>
  void wait(L& lock) {
    pthread_mutex_lock(&shadow_mutex_);
    lock.unlock();
    pthread_cond_wait(&cond_, &shadow_mutex_);
    pthread_mutex_unlock(&shadow_mutex_);
    lock.lock();
  }

  // Timed wait; returns false on timeout. The LibASL mutex is reacquired in
  // both cases.
  template <Lockable L>
  bool wait_for(L& lock, Nanos timeout_ns) {
    timespec deadline;
    clock_gettime(CLOCK_REALTIME, &deadline);
    deadline.tv_sec += static_cast<time_t>(timeout_ns / kNanosPerSec);
    deadline.tv_nsec += static_cast<long>(timeout_ns % kNanosPerSec);
    if (deadline.tv_nsec >= static_cast<long>(kNanosPerSec)) {
      deadline.tv_sec += 1;
      deadline.tv_nsec -= static_cast<long>(kNanosPerSec);
    }
    pthread_mutex_lock(&shadow_mutex_);
    lock.unlock();
    const int rc = pthread_cond_timedwait(&cond_, &shadow_mutex_, &deadline);
    pthread_mutex_unlock(&shadow_mutex_);
    lock.lock();
    return rc == 0;
  }

  // Wakes one / all waiters. Taking the shadow mutex around the signal
  // closes the missed-wakeup race against a waiter between lock.unlock()
  // and pthread_cond_wait().
  void signal() {
    pthread_mutex_lock(&shadow_mutex_);
    pthread_cond_signal(&cond_);
    pthread_mutex_unlock(&shadow_mutex_);
  }
  void broadcast() {
    pthread_mutex_lock(&shadow_mutex_);
    pthread_cond_broadcast(&cond_);
    pthread_mutex_unlock(&shadow_mutex_);
  }

 private:
  pthread_mutex_t shadow_mutex_;
  pthread_cond_t cond_;
};

}  // namespace asl

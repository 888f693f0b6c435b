// Dense thread-id assignment.
//
// Queue locks (MCS, CLH, ShflLock) need a per-thread, per-lock slot for their
// queue node. Rather than hashing thread ids per acquisition (litl-style), we
// assign each thread a small dense id on first use and let every lock keep a
// fixed array of kMaxThreads nodes. This costs 32 KiB per MCS lock (512
// cache-line nodes of 64 B) and makes the hot path a single indexed load.
#pragma once

#include <cstdint>

namespace asl {

// Upper bound on concurrently-live registered threads. Large enough for the
// oversubscription experiments (2 threads per core on an 8-core AMP is 16;
// we leave plenty of headroom for servers).
inline constexpr std::uint32_t kMaxThreads = 512;

// Returns this thread's dense id in [0, kMaxThreads). Ids are assigned on
// first call and stable for the thread's lifetime. Ids of exited threads are
// recycled so long-running processes that churn threads do not exhaust the
// space.
std::uint32_t thread_id();

// Number of ids handed out so far and never reclaimed (high-water mark).
std::uint32_t thread_id_high_water();

namespace detail {
// Test hook: force-release the calling thread's id (normally done by the
// thread-exit destructor).
void release_thread_id_for_testing();
}  // namespace detail

}  // namespace asl

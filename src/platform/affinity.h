// Thread-to-core pinning.
//
// The paper's evaluation binds threads to cores ("we bind threads to
// different cores to evenly distribute them for stable results"). On the
// reproduction host this is a no-op-safe wrapper: pinning to a CPU that does
// not exist simply fails and is reported to the caller.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdint>

namespace asl {

// Number of online CPUs.
inline std::uint32_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::uint32_t>(n) : 1u;
}

namespace detail {
// The calling thread's affinity mask (sched_getaffinity); every online CPU
// when it cannot be read.
inline cpu_set_t affinity_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) == 0) {
    CPU_ZERO(&set);
    for (std::uint32_t cpu = 0; cpu < online_cpus() && cpu < CPU_SETSIZE;
         ++cpu) {
      CPU_SET(cpu, &set);
    }
  }
  return set;
}
// A namespace-scope variable: dynamically initialized before main runs.
inline const cpu_set_t startup_affinity_mask = affinity_mask();
}  // namespace detail

// Number of CPUs in the process's affinity mask as it was at start-up: the
// CPUs a taskset or cpuset leaves the process, which sysconf does not see.
// Read before main runs, so a thread that later pins itself (and the
// threads it spawns, which inherit its one-CPU mask) does not shrink the
// answer.
inline std::uint32_t allowed_cpus() {
  return static_cast<std::uint32_t>(
      CPU_COUNT(&detail::startup_affinity_mask));
}

// The (index mod count)-th CPU that `mask` holds, counting up from its
// lowest CPU; 0 for an empty mask.
inline std::uint32_t nth_cpu_of(const cpu_set_t& mask, std::uint32_t index) {
  const int count = CPU_COUNT(&mask);
  if (count <= 0) return 0;
  std::uint32_t left = index % static_cast<std::uint32_t>(count);
  std::uint32_t cpu = 0;
  while (!CPU_ISSET(cpu, &mask) || left-- != 0) ++cpu;
  return cpu;
}

// Pin the calling thread to `cpu`. Returns true on success.
inline bool pin_to_cpu(std::uint32_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Pin the calling thread to the (cpu mod count)-th CPU of the start-up
// affinity mask, so experiment drivers written for an 8-core AMP still run
// (time-shared) on smaller hosts, and a pinned thread stays inside the
// taskset or cpuset the process started in. On an unrestricted host this
// is CPU cpu mod online_cpus().
inline bool pin_to_cpu_wrapped(std::uint32_t cpu) {
  return pin_to_cpu(nth_cpu_of(detail::startup_affinity_mask, cpu));
}

// CPU the calling thread is currently executing on (-1 if unavailable).
inline int current_cpu() { return sched_getcpu(); }

}  // namespace asl

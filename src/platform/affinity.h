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
inline std::uint32_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return online_cpus();
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::uint32_t>(n) : 1u;
}
// A namespace-scope variable: dynamically initialized before main runs.
inline const std::uint32_t startup_affinity_cpus = affinity_cpus();
}  // namespace detail

// Number of CPUs in the process's affinity mask (sched_getaffinity) as it
// was at start-up: the CPUs a taskset or cpuset leaves the process, which
// sysconf does not see. Read before main runs, so a thread that later pins
// itself (and the threads it spawns, which inherit its one-CPU mask) does
// not shrink the answer.
inline std::uint32_t allowed_cpus() { return detail::startup_affinity_cpus; }

// Pin the calling thread to `cpu`. Returns true on success.
inline bool pin_to_cpu(std::uint32_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Pin the calling thread to `cpu` modulo the online CPU count, so experiment
// drivers written for an 8-core AMP still run (time-shared) on smaller hosts.
inline bool pin_to_cpu_wrapped(std::uint32_t cpu) {
  return pin_to_cpu(cpu % online_cpus());
}

// CPU the calling thread is currently executing on (-1 if unavailable).
inline int current_cpu() { return sched_getcpu(); }

}  // namespace asl

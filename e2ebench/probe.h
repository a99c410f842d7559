#ifndef E2EBENCH_PROBE_H_
#define E2EBENCH_PROBE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>

namespace e2ebench {

/// One thread's scheduler accounting, from /proc/self/task/<tid>/schedstat
/// and .../status.
struct ThreadSample {
  uint64_t cpu_ns = 0;     // time on a CPU
  uint64_t runq_ns = 0;    // time runnable but waiting for a CPU
  uint64_t voluntary = 0;  // voluntary context switches (blocking waits)
};

using ThreadSamples = std::map<pid_t, ThreadSample>;

/// Every live thread of this process.
ThreadSamples SampleThreads();

/// Sum of (end - start) over `tids` present in both samples.
ThreadSample Delta(const ThreadSamples& start, const ThreadSamples& end,
                   const std::set<pid_t>& tids);

/// Process-wide counters.
struct ProcessSample {
  uint64_t cpu_us = 0;         // user + system CPU of all threads
  uint64_t involuntary = 0;    // preemptions of all threads
  uint64_t host_steal = 0;     // /proc/stat steal jiffies, all CPUs
  uint64_t host_total = 0;     // /proc/stat total jiffies, all CPUs
};

ProcessSample SampleProcess();

/// Peak resident set size (VmHWM) in MB.
double PeakRssMb();

pid_t CurrentTid();

/// A base port such that [base, base + count) are below the kernel's
/// ephemeral range and each one can be bound on 127.0.0.1 right now.
/// Returns 0 if none was found.
uint16_t PickFreeBasePort(uint32_t count);

}  // namespace e2ebench

#endif  // E2EBENCH_PROBE_H_

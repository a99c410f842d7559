#ifndef E2EBENCH_MEASURE_H_
#define E2EBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_api.h"
#include "generator.h"
#include "probe.h"
#include "runner.h"
#include "traced_cluster.h"

namespace e2ebench {

// Sizes of the fixed-count phases (README.md, "Run structure").
inline constexpr uint64_t kWarmupTxns = 20000;
inline constexpr uint64_t kDegradedTxns = 20000;
inline constexpr uint64_t kRecoveredTxns = 20000;
inline constexpr uint32_t kMinCycles = 3;
/// Steady workloads sample CPU and messages in slices this long.
inline constexpr int kSliceMs = 100;
/// Steady workloads take throughput and latency over chunks of this many
/// consecutive replies and report the median chunk: short enough that a
/// burst of host steal spoils few chunks, long enough that a chunk's p99
/// has ten samples above it.
inline constexpr size_t kChunkTxns = 1000;

/// One measured slice of the window: kSliceMs of steady load, or one
/// fail/degrade/recover/resume cycle of the failover scenario.
struct Slice {
  miniraid::TimePoint start_ns = 0;
  miniraid::TimePoint end_ns = 0;
  uint64_t cpu_us = 0;  // process CPU spent in the slice
  uint64_t msgs = 0;    // ClusterStats::messages_sent delta
};

/// What one failure/recovery cycle observed.
struct Cycle {
  miniraid::SiteId victim = 0;
  miniraid::TimePoint fail_ns = 0;
  uint32_t degraded_phase = 0;  // ClosedLoop phase index of the load on
                                // the survivors
  bool type2_announced = false;
  bool type1_completed = false;
  double recovery_ms = 0;
  uint64_t recovery_rows = 0;  // victim's own fail-locks at type-1 end
  uint64_t fail_locks_set = 0;  // bits set while the victim was down
  /// Live sites some site believed down: after the load on the survivors
  /// (a survivor suspected), or after recovery (anyone suspected).
  std::string false_suspicions;
};

/// Everything measured over one window.
struct Window {
  std::string error;  // a bounded wait that timed out, or ""
  std::vector<Slice> slices;
  std::vector<Cycle> cycles;
  std::vector<Completion> completions;  // replies inside the window
  miniraid::TimePoint start_ns = 0;
  miniraid::TimePoint end_ns = 0;
  uint64_t proc_cpu_us = 0;
  ThreadRoles roles;
  ThreadSample managing, sites, io;  // scheduler deltas per thread role
  CounterTotals counters_start, counters_end;
  std::vector<miniraid::Duration> prepare_phase, commit_phase;
};

/// Builds a cluster for `workload` (MakeCluster, or TracedCluster when
/// `tracer` is set), on free ports below the ephemeral range for tcp.
miniraid::Result<std::unique_ptr<miniraid::Cluster>> BuildCluster(
    const WorkloadSpec& workload, Tracer* tracer);

/// Runs one transaction per coordinator until each committed. False if
/// that did not happen in time.
bool CommitOnEveryCoordinator(ClosedLoop& loop);

/// Measures one window of `window_ms` on a warmed-up cluster: slices of
/// steady load, or failover cycles until the time is up. With a tracer,
/// recording is on for exactly the window.
Window MeasureWindow(miniraid::Cluster& cluster, ClosedLoop& loop,
                     const WorkloadSpec& workload, int window_ms,
                     Tracer* tracer);

/// Transactions in `window` that count as failed operations: unreachable
/// or rejected, or resolved by ack_timeout (or a participant-failure
/// abort) without an injected failure to explain it.
uint64_t CountFailed(const Window& window, const ClosedLoop& loop,
                     const WorkloadSpec& workload);

/// The correctness gate, run at quiescence after the window drained.
struct GateCheck {
  std::string name;
  bool ok;
  std::string detail;
};
std::vector<GateCheck> CheckGate(miniraid::Cluster& cluster,
                                 const ClosedLoop& loop,
                                 const WorkloadSpec& workload,
                                 const Window& window);

/// Consecutive completions of a window that one timing sample covers:
/// kChunkTxns replies of steady load, or one failover cycle.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  miniraid::Duration span_ns = 0;  // the time those replies took
};
std::vector<Chunk> Chunks(const Window& window);

/// Median of `f` over the chunks of every window.
double ChunkMedian(const std::vector<Window>& windows,
                   double (*f)(const Window&, const Chunk&));
/// Median of `f` over the slices of every window.
double SliceMedian(const std::vector<Window>& windows,
                   double (*f)(const Window&, size_t slice));

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

// Per-chunk and per-slice metrics (ChunkMedian / SliceMedian arguments).
double ChunkCommitTps(const Window& w, const Chunk& chunk);
double ChunkLatencyP50Us(const Window& w, const Chunk& chunk);
double ChunkLatencyP99Us(const Window& w, const Chunk& chunk);
double SliceCpuUsPerTxn(const Window& w, size_t slice);
double SliceMsgsPerTxn(const Window& w, size_t slice);

/// Longest gap without a commit reply after each Fail(), in ms.
std::vector<double> OutagesMs(const Window& window);

}  // namespace e2ebench

#endif  // E2EBENCH_MEASURE_H_

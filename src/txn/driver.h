#ifndef MINIRAID_TXN_DRIVER_H_
#define MINIRAID_TXN_DRIVER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "core/cluster_api.h"
#include "metrics/stats.h"
#include "txn/transaction.h"
#include "txn/workload.h"

namespace miniraid {

/// How a Driver offers load to a cluster.
///
/// Closed loop (arrival_per_sec == 0): a fixed population of `concurrency`
/// outstanding transactions; a new one is submitted the moment a reply
/// arrives. This measures peak pipelined throughput.
///
/// Open loop (arrival_per_sec > 0): transactions arrive at fixed spacing
/// regardless of completions, the way production traffic does; latency
/// then includes any queueing behind the cluster's submission window.
struct DriverOptions {
  /// Closed-loop population. 1 reproduces the paper's serial submission.
  uint32_t concurrency = 1;

  /// Open-loop arrival rate in transactions per second of cluster time
  /// (virtual under sim). 0 = closed loop.
  double arrival_per_sec = 0.0;

  /// Transactions submitted before measurement starts (not recorded).
  uint32_t warmup_txns = 0;
  /// Transactions submitted and recorded in the measure phase.
  uint32_t measure_txns = 100;

  /// Coordinator for the i-th submission (0-based, warmup included).
  /// Default: round-robin over all sites.
  std::function<SiteId(uint64_t)> coordinator_for;

  /// Record each measured transaction's outcome in completion order
  /// (DriverReport::outcomes) — the determinism tests compare these.
  bool record_outcomes = false;

  /// Real backends only: give up if the run has not completed by then.
  Duration timeout = Seconds(120);
};

/// What a Driver::Run measured. Counters cover the measure phase only.
struct DriverReport {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unreachable = 0;

  /// Submit-to-reply latency of every measured transaction.
  DurationStats latency;

  /// First measured submission to last measured reply.
  Duration elapsed = 0;

  /// False if the run timed out with replies still outstanding (real
  /// backends only; the counters then cover what completed in time).
  bool completed = false;

  /// Measured outcomes in completion order (record_outcomes mode).
  std::vector<TxnOutcome> outcomes;

  double CommittedPerSec() const;
  /// "txns=400 committed=398 ... thrpt=1234.5/s p50=1.2ms p95=3.4ms"
  std::string Summary() const;
  /// One JSON object with the numbers above, labelled `label`.
  std::string ToJson(std::string_view label) const;
};

/// Closed-/open-loop workload driver over the unified Cluster interface:
/// submits `warmup_txns + measure_txns` transactions from `workload`
/// through Cluster::SubmitTxn and aggregates outcome counts and latency
/// histograms for the measure phase. Runs unchanged against the simulator
/// (deterministic, virtual-time) and the real backends (wall-clock).
///
/// The driver's bookkeeping lives in the managing execution context, so a
/// single Driver must not run concurrently with another on the same
/// cluster; sequential phases (e.g. healthy / failed / recovering) may
/// share one cluster and one workload generator — transaction ids keep
/// incrementing across runs.
class Driver {
 public:
  /// `cluster` and `workload` must outlive the driver and are not owned.
  Driver(Cluster* cluster, WorkloadGenerator* workload,
         const DriverOptions& options);

  /// Runs one load phase to completion (blocking) and returns the report.
  DriverReport Run();

 private:
  Cluster* const cluster_;
  WorkloadGenerator* const workload_;
  DriverOptions options_;
};

}  // namespace miniraid

#endif  // MINIRAID_TXN_DRIVER_H_

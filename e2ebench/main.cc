// Wall-clock benchmark of mini-RAID: see README.md for the workloads, the
// metrics and what each one is expected to move.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--source <digest>]
//   e2ebench --selftest
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the human-readable report. A failed step prints one line naming it and
// exits non-zero without a result.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "generator.h"
#include "measure.h"
#include "probe.h"
#include "runner.h"
#include "traced_cluster.h"

namespace e2ebench {
namespace {

using miniraid::Cluster;
using miniraid::Seconds;
using miniraid::SiteId;

constexpr int kSetupReps = 11;
constexpr int kMeasuredClusters = 5;
constexpr int kRunLimitSeconds = 165;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string source = "unknown";
  bool selftest = false;
};

/// Ends the process with a one-line diagnosis if a run outlives its time
/// limit, naming the step it was in.
class Watchdog {
 public:
  explicit Watchdog(int limit_seconds)
      : limit_seconds_(limit_seconds), thread_([this] { Run(); }) {}
  ~Watchdog() {
    {
      miniraid::MutexLock lock(mu_);
      done_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Step(const char* step) { step_.store(step); }

 private:
  void Run() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(limit_seconds_);
    miniraid::MutexLock lock(mu_);
    while (!done_) {
      if (cv_.WaitUntil(mu_, deadline) && !done_) {
        std::printf("e2ebench: step '%s' did not finish within %d s\n",
                    step_.load(), limit_seconds_);
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }

  const int limit_seconds_;
  std::atomic<const char*> step_{"start"};
  miniraid::Mutex mu_;
  miniraid::CondVar cv_;
  bool done_ MR_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

[[noreturn]] void FailStep(const std::string& step, const std::string& why) {
  std::printf("e2ebench: step '%s' failed: %s\n", step.c_str(), why.c_str());
  std::fflush(stdout);
  std::exit(1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-52s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = miniraid::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    json += miniraid::StrFormat(
        "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
        metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PerTxn(double total, uint64_t txns) {
  return txns ? total / double(txns) : 0;
}

uint64_t Commits(const Window& w) {
  uint64_t commits = 0;
  for (const Completion& c : w.completions) {
    commits += c.outcome == miniraid::TxnOutcome::kCommitted ? 1 : 0;
  }
  return commits;
}

/// How many samples the chunk and slice medians took.
std::pair<std::string, std::string> SampleNotes(
    const std::vector<Window>& windows) {
  size_t chunks = 0;
  size_t slices = 0;
  size_t txns = 0;
  for (const Window& w : windows) {
    chunks += Chunks(w).size();
    slices += w.slices.size();
    txns += w.completions.size();
  }
  const bool cycles = !windows.front().cycles.empty();
  return {miniraid::StrFormat("median of %zu %s, %zu clusters, %zu txns",
                              chunks,
                              cycles ? "cycles" : "chunks of 1000 replies",
                              windows.size(), txns),
          miniraid::StrFormat("median of %zu %s, %zu clusters", slices,
                              cycles ? "cycles" : "100 ms slices",
                              windows.size())};
}

/// A cluster built, committed on by every coordinator and warmed up.
struct Prepared {
  // Declared before the cluster so it is destroyed after it: the cluster's
  // threads hold the client's callbacks until they stop.
  std::unique_ptr<ClosedLoop> loop;
  std::unique_ptr<Cluster> cluster;
  double setup_s = 0;
};

Prepared Prepare(const WorkloadSpec& workload, uint64_t seed, Tracer* tracer,
                 bool warm_up, Watchdog& watchdog) {
  Prepared p;
  watchdog.Step("setup");
  const auto t0 = std::chrono::steady_clock::now();
  auto cluster = BuildCluster(workload, tracer);
  if (!cluster.ok()) FailStep("setup", cluster.status().ToString());
  p.cluster = std::move(cluster).value();
  p.loop = std::make_unique<ClosedLoop>(p.cluster.get(), seed,
                                        workload.write_share);
  if (!CommitOnEveryCoordinator(*p.loop)) {
    FailStep("setup", "a coordinator did not commit its first transaction");
  }
  p.setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  if (warm_up) {
    watchdog.Step("warm-up");
    std::vector<SiteId> all;
    for (SiteId id = 0; id < kSites; ++id) all.push_back(id);
    if (!p.loop->RunPhase(all, kWarmupTxns, false, false, Seconds(120))) {
      FailStep("warm-up", "the warm-up phase did not drain");
    }
  }
  return p;
}

bool PrintGate(const std::vector<GateCheck>& checks,
               const std::string& label) {
  bool ok = true;
  for (const GateCheck& c : checks) {
    std::printf("gate %-8s %-28s %-4s %s\n", label.c_str(), c.name.c_str(),
                c.ok ? "ok" : "FAIL", c.detail.c_str());
    ok = ok && c.ok;
  }
  return ok;
}

/// Measured window + gate on a prepared cluster, then teardown.
struct Measured {
  Window window;
  bool correct = false;
  uint64_t failed = 0;
};

Measured MeasureAndCheck(Prepared& p, const WorkloadSpec& workload,
                         int window_ms, Tracer* tracer, Watchdog& watchdog,
                         const std::string& label) {
  Measured m;
  watchdog.Step("window");
  m.window = MeasureWindow(*p.cluster, *p.loop, workload, window_ms, tracer);
  if (m.window.completions.empty()) {
    FailStep("window", m.window.error.empty() ? "no transaction completed"
                                              : m.window.error);
  }
  watchdog.Step("gate");
  m.correct = PrintGate(CheckGate(*p.cluster, *p.loop, workload, m.window),
                        label);
  m.failed = CountFailed(m.window, *p.loop, workload);
  watchdog.Step("teardown");
  p.cluster.reset();
  return m;
}

/// Per-layer metrics every run gets for free: scheduler accounting per
/// thread role and the program's own counters.
std::vector<Metric> FreeLayerMetrics(const Window& w) {
  const uint64_t n = w.completions.size();
  const CounterTotals& a = w.counters_start;
  const CounterTotals& b = w.counters_end;
  const ThreadSample loops_io{
      w.managing.cpu_ns + w.sites.cpu_ns + w.io.cpu_ns,
      w.managing.runq_ns + w.sites.runq_ns + w.io.runq_ns,
      w.managing.voluntary + w.sites.voluntary + w.io.voluntary};
  const double failures = double(w.cycles.size());
  std::vector<double> rows, recovery_ms, fail_locks;
  for (const Cycle& c : w.cycles) {
    rows.push_back(double(c.recovery_rows));
    recovery_ms.push_back(c.recovery_ms);
    fail_locks.push_back(double(c.fail_locks_set));
  }
  auto per_failure = [failures](uint64_t delta) {
    return failures > 0 ? double(delta) / failures : 0;
  };
  const uint64_t rounds = b.batch_rounds - a.batch_rounds;
  return {
      {"core.managing_cpu_us_per_txn", PerTxn(w.managing.cpu_ns / 1e3, n),
       "us", "managing loop thread"},
      {"replication.site_thread_cpu_us_per_txn",
       PerTxn(w.sites.cpu_ns / 1e3, n), "us", "site loop threads"},
      {"net.io_thread_cpu_us_per_txn", PerTxn(w.io.cpu_ns / 1e3, n), "us",
       "tcp accept and reader threads"},
      {"net.runq_wait_us_per_txn", PerTxn(loops_io.runq_ns / 1e3, n), "us",
       "runnable but not running, loop and io threads"},
      {"net.wakeups_per_txn", PerTxn(double(loops_io.voluntary), n), "count",
       "voluntary context switches, loop and io threads"},
      {"replication.lock_waits_per_txn",
       PerTxn(double(b.lock_waits - a.lock_waits), n), "count", ""},
      {"replication.lock_rejections_per_txn",
       PerTxn(double(b.lock_rejections - a.lock_rejections), n), "count", ""},
      {"replication.batch_members_per_round",
       rounds ? double(b.batch_members - a.batch_members) / double(rounds)
              : 0,
       "count", miniraid::StrFormat("%llu rounds", (unsigned long long)rounds)},
      {"replication.prepare_phase_us_p50",
       Median(std::vector<double>(w.prepare_phase.begin(),
                                  w.prepare_phase.end())) /
           1e3,
       "us", miniraid::StrFormat("%zu samples", w.prepare_phase.size())},
      {"replication.commit_phase_us_p50",
       Median(std::vector<double>(w.commit_phase.begin(),
                                  w.commit_phase.end())) /
           1e3,
       "us", miniraid::StrFormat("%zu samples", w.commit_phase.size())},
      {"replication.recovery_rows", Median(rows), "count",
       "own fail-locks at type-1 completion, median"},
      {"replication.fail_locks_set_per_failure", Median(fail_locks), "count",
       "bits set on all sites while the victim was down, median"},
      {"replication.copier_txns_per_recovery",
       per_failure(b.copier_txns - a.copier_txns), "count", ""},
      {"replication.clear_lock_txns_per_recovery",
       per_failure(b.clear_lock_txns - a.clear_lock_txns), "count", ""},
      {"replication.control2_per_failure",
       per_failure(b.control2_initiated - a.control2_initiated), "count", ""},
      {"abort_ratio", PerTxn(double(n - Commits(w)), n), "ratio",
       miniraid::StrFormat("%llu of %llu",
                           (unsigned long long)(n - Commits(w)),
                           (unsigned long long)n)},
      {"outage_ms", Median(OutagesMs(w)), "ms",
       miniraid::StrFormat("median over %zu failures", w.cycles.size())},
      {"recovery_ms", Median(recovery_ms), "ms",
       miniraid::StrFormat("median over %zu recoveries", w.cycles.size())},
  };
}

/// Message types on some workload's hot path, broken out per type.
constexpr miniraid::MsgType kHotTypes[] = {
    miniraid::MsgType::kTxnRequest,      miniraid::MsgType::kPrepare,
    miniraid::MsgType::kPrepareAck,      miniraid::MsgType::kCommit,
    miniraid::MsgType::kCommitAck,       miniraid::MsgType::kBatchPrepare,
    miniraid::MsgType::kBatchPrepareAck, miniraid::MsgType::kBatchCommit,
    miniraid::MsgType::kBatchCommitAck,  miniraid::MsgType::kCopyRequest,
    miniraid::MsgType::kCopyReply,       miniraid::MsgType::kClearFailLocks,
    miniraid::MsgType::kRecoveryAnnounce, miniraid::MsgType::kRecoveryInfo,
    miniraid::MsgType::kFailureAnnounce,
};

/// Per-layer metrics of the traced run, and the ledger that reconciles
/// them with the site threads' runnable time.
std::vector<Metric> TracedLayerMetrics(const Tracer::Totals& t,
                                       const Window& traced,
                                       const Window& untraced, bool inproc) {
  const uint64_t n = traced.completions.size();
  auto sum = [&t](int site, SpanKind kind, bool self) {
    uint64_t ns = 0;
    for (size_t m = 0; m < kMsgTypes; ++m) {
      const SpanTotals& s = t.spans[site][static_cast<size_t>(kind)][m];
      ns += self ? s.self_ns : s.total_ns;
    }
    return ns;
  };
  auto count = [&t](SpanKind kind) {
    uint64_t c = 0;
    for (int site = 0; site < 2; ++site) {
      for (size_t m = 0; m < kMsgTypes; ++m) {
        c += t.spans[site][static_cast<size_t>(kind)][m].count;
      }
    }
    return c;
  };
  std::vector<Metric> out;
  out.push_back({"replication.handler_self_us_per_txn",
                 PerTxn(sum(1, SpanKind::kHandler, true) / 1e3, n), "us",
                 "Site::OnMessage minus its sends, timers and replays"});
  for (miniraid::MsgType type : kHotTypes) {
    const SpanTotals& s = t.spans[1][static_cast<size_t>(SpanKind::kHandler)]
                                 [static_cast<size_t>(type)];
    out.push_back({"replication.handler_self_us_per_txn." +
                       std::string(miniraid::MsgTypeName(type)),
                   PerTxn(s.self_ns / 1e3, n), "us",
                   miniraid::StrFormat("%llu handled",
                                       (unsigned long long)s.count)});
  }
  out.push_back({"replication.timer_fire_self_us_per_txn",
                 PerTxn(sum(1, SpanKind::kTimerFire, true) / 1e3, n), "us",
                 "site timer callbacks"});
  out.push_back({"core.managing_handler_self_us_per_txn",
                 PerTxn(sum(0, SpanKind::kHandler, true) / 1e3, n), "us",
                 "ManagingSite::OnMessage minus the client callback"});
  const uint64_t send_ns =
      sum(0, SpanKind::kSend, true) + sum(1, SpanKind::kSend, true);
  out.push_back({"net.send_us_per_txn", PerTxn(send_ns / 1e3, n), "us",
                 miniraid::StrFormat("%llu sends",
                                     (unsigned long long)count(
                                         SpanKind::kSend))});
  std::vector<double> delivery(t.delivery_ns.begin(), t.delivery_ns.end());
  const std::string deliveries =
      miniraid::StrFormat("%zu deliveries", delivery.size());
  out.push_back({"net.delivery_us_p50", Percentile(delivery, 0.50) / 1e3,
                 "us", deliveries});
  out.push_back({"net.delivery_us_p99", Percentile(delivery, 0.99) / 1e3,
                 "us", deliveries});
  const uint64_t cancels = count(SpanKind::kTimerCancel);
  out.push_back(
      {"net.timer_ops_per_txn",
       PerTxn(double(count(SpanKind::kTimerSchedule) + cancels), n), "count",
       "SiteRuntime ScheduleAfter + CancelTimer, all endpoints"});
  out.push_back({"net.timer_cancel_ns",
                 cancels ? double(sum(0, SpanKind::kTimerCancel, false) +
                                  sum(1, SpanKind::kTimerCancel, false)) /
                               double(cancels)
                         : 0,
                 "ns", "mean EventLoop::CancelTimer"});
  out.push_back({"msg.encode_ns_per_txn", PerTxn(double(t.encode_ns), n),
                 "ns", "EncodeMessage over every sent message, replayed"});
  out.push_back({"msg.decode_ns_per_txn", PerTxn(double(t.decode_ns), n),
                 "ns", "DecodeMessage of the same bytes"});
  out.push_back({"msg.bytes_per_txn", PerTxn(double(t.bytes), n), "B",
                 miniraid::StrFormat("%llu messages",
                                     (unsigned long long)t.messages)});

  const double cpu_traced = PerTxn(double(traced.proc_cpu_us), n);
  const double cpu_untraced = PerTxn(double(untraced.proc_cpu_us),
                                     untraced.completions.size());
  out.push_back({"trace.overhead_pct",
                 cpu_untraced > 0
                     ? (cpu_traced - cpu_untraced) / cpu_untraced * 100
                     : 0,
                 "%",
                 miniraid::StrFormat("cpu_us_per_txn %.2f traced, %.2f not",
                                     cpu_traced, cpu_untraced)});
  // The ledger: the self time of every span on a site thread, against the
  // time those threads were runnable (on a CPU or waiting for one) in the
  // same run. Spans are wall time, so a preempted span also holds run-queue
  // wait. On inproc the receiving loop decodes each frame outside any span;
  // the replayed decode stands in for it. What remains is event-loop
  // dispatch and wake-ups and the trace's own bookkeeping.
  double attributed_ns = 0;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    attributed_ns += double(sum(1, static_cast<SpanKind>(k), true));
  }
  if (inproc) attributed_ns += double(t.decode_ns);
  const double runnable =
      PerTxn((traced.sites.cpu_ns + traced.sites.runq_ns) / 1e3, n);
  const double attributed = PerTxn(attributed_ns / 1e3, n);
  out.push_back({"trace.site_runnable_us_per_txn", runnable, "us",
                 miniraid::StrFormat("site loop threads, traced run: %.2f "
                                     "CPU + %.2f run-queue wait",
                                     PerTxn(traced.sites.cpu_ns / 1e3, n),
                                     PerTxn(traced.sites.runq_ns / 1e3, n))});
  out.push_back({"trace.site_attributed_us_per_txn", attributed, "us",
                 inproc ? "span self time on the site threads + replayed "
                          "inbound decode"
                        : "span self time on the site threads"});
  out.push_back({"trace.unattributed_pct",
                 runnable > 0 ? (runnable - attributed) / runnable * 100 : 0,
                 "%", "runnable site-thread time no span accounts for"});
  return out;
}

void PrintLedger(const Tracer::Totals& t, uint64_t txns) {
  std::printf("ledger site-thread self time per txn (traced run):\n");
  for (size_t k = 0; k < kSpanKinds; ++k) {
    for (size_t m = 0; m < kMsgTypes; ++m) {
      const SpanTotals& s = t.spans[1][k][m];
      if (s.count == 0) continue;
      std::printf("ledger   %-14s %-18s %10.3f us  (%llu spans)\n",
                  std::string(SpanKindName(static_cast<SpanKind>(k))).c_str(),
                  m == kNoMsgType
                      ? "-"
                      : std::string(miniraid::MsgTypeName(
                                        static_cast<miniraid::MsgType>(m)))
                            .c_str(),
                  PerTxn(s.self_ns / 1e3, txns), (unsigned long long)s.count);
    }
  }
}

int RunWorkload(const Args& args) {
  const WorkloadSpec* workload = FindWorkload(args.workload);
  if (workload == nullptr) FailStep("arguments", "unknown workload");
  Watchdog watchdog(kRunLimitSeconds);
  const ProcessSample run_start = SampleProcess();
  std::printf("e2ebench workload=%s seed=%llu seconds=%d trace=%d\n",
              std::string(workload->name).c_str(),
              (unsigned long long)args.seed, args.seconds, args.trace);

  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (args.trace == 0) {
    // Set-up time is the median over every fresh cluster of the run. The
    // window is split evenly over kMeasuredClusters of them: where a fresh
    // cluster's threads land on the vCPUs moves its throughput by about
    // 10%, and one cluster per run would carry that into every metric.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Prepared p = Prepare(*workload, args.seed, nullptr, false, watchdog);
      setups.push_back(p.setup_s);
    }
    const int clusters = workload->failover ? 1 : kMeasuredClusters;
    std::vector<Window> windows;
    double rss_mb = 0;
    for (int k = 0; k < clusters; ++k) {
      Prepared p = Prepare(*workload, args.seed, nullptr, true, watchdog);
      setups.push_back(p.setup_s);
      if (k == 0) rss_mb = PeakRssMb();
      Measured m = MeasureAndCheck(p, *workload, args.seconds * 1000 / clusters,
                                   nullptr, watchdog,
                                   miniraid::StrFormat("c%d", k + 1));
      correct = correct && m.correct;
      attempted += m.window.completions.size();
      failed += m.failed;
      windows.push_back(std::move(m.window));
    }
    const auto [chunk_note, slice_note] = SampleNotes(windows);
    metrics = {
        {"commit_tps", ChunkMedian(windows, ChunkCommitTps), "1/s",
         chunk_note},
        {"lat_p50_us", ChunkMedian(windows, ChunkLatencyP50Us), "us",
         chunk_note},
        {"lat_p99_us", ChunkMedian(windows, ChunkLatencyP99Us), "us",
         chunk_note},
        {"cpu_us_per_txn", SliceMedian(windows, SliceCpuUsPerTxn), "us",
         slice_note},
        {"msgs_per_txn", SliceMedian(windows, SliceMsgsPerTxn), "count",
         slice_note},
        {"rss_mb", rss_mb, "MB",
         miniraid::StrFormat("peak, after set-up and %llu warm-up txns",
                             (unsigned long long)kWarmupTxns)},
        {"setup_s", Median(setups), "s",
         miniraid::StrFormat("median of %zu clusters, %.4f to %.4f",
                             setups.size(),
                             *std::min_element(setups.begin(), setups.end()),
                             *std::max_element(setups.begin(),
                                               setups.end()))},
    };
    PrintMetrics(metrics);
    // Workload-specific figures of the first cluster, reported but not
    // gated (see README.md).
    PrintMetrics(FreeLayerMetrics(windows.front()));
  } else {
    Prepared plain = Prepare(*workload, args.seed, nullptr, true, watchdog);
    Measured untraced = MeasureAndCheck(plain, *workload, args.seconds * 1000,
                                        nullptr, watchdog, "untraced");
    Tracer tracer(kSites + 1);
    Prepared traced_cluster =
        Prepare(*workload, args.seed, &tracer, true, watchdog);
    Measured traced = MeasureAndCheck(traced_cluster, *workload,
                                      args.seconds * 1000, &tracer, watchdog,
                                      "traced");
    const Tracer::Totals totals = tracer.Collect();
    correct = untraced.correct && traced.correct;
    attempted =
        untraced.window.completions.size() + traced.window.completions.size();
    failed = untraced.failed + traced.failed;
    metrics = FreeLayerMetrics(untraced.window);
    for (Metric& m : TracedLayerMetrics(
             totals, traced.window, untraced.window,
             workload->backend == miniraid::ClusterBackend::kInProc)) {
      metrics.push_back(std::move(m));
    }
    PrintMetrics(metrics);
    PrintLedger(totals, traced.window.completions.size());
    std::printf("spans %llu recorded, %llu kept\n",
                (unsigned long long)totals.spans_recorded,
                (unsigned long long)totals.spans_kept);
    const std::string path =
        args.out_dir + "/spans-" + std::string(workload->name) + ".tsv";
    watchdog.Step("write spans");
    if (!tracer.WriteSpans(path)) FailStep("write spans", path);
    std::printf("spans written to %s\n", path.c_str());
  }

  const ProcessSample run_end = SampleProcess();
  const uint64_t total = run_end.host_total - run_start.host_total;
  std::printf(
      "diagnostics {\"host_steal_share\": %.4f, \"involuntary_switches\": "
      "%llu, \"vcpus\": %ld, \"seed\": %llu, \"source\": \"%s\"}\n",
      total ? double(run_end.host_steal - run_start.host_steal) / double(total)
            : 0.0,
      (unsigned long long)(run_end.involuntary - run_start.involuntary),
      ::sysconf(_SC_NPROCESSORS_ONLN), (unsigned long long)args.seed,
      args.source.c_str());
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests.
// ---------------------------------------------------------------------------

bool Report(const char* name, bool ok, const std::string& detail) {
  std::printf("selftest %-40s %s  %s\n", name, ok ? "PASS" : "FAIL",
              detail.c_str());
  std::fflush(stdout);
  return ok;
}

bool GeneratorIsPureFunctionOfSeed() {
  auto draw = [](uint64_t seed) {
    TxnGenerator generator(seed, 0.5);
    std::vector<miniraid::TxnSpec> specs;
    for (miniraid::TxnId id = 1; id <= 2000; ++id) {
      specs.push_back(generator.Next(id));
    }
    return specs;
  };
  const auto a = draw(7);
  const auto b = draw(7);
  const auto c = draw(8);
  return Report("generator_pure_function_of_seed", a == b && a != c,
                a == b ? (a != c ? "same seed same specs, other seed differs"
                                 : "a different seed gave the same specs")
                       : "the same seed gave different specs");
}

/// Counts of one window-1 run of `txns` transactions.
struct SerialRun {
  uint64_t msgs = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unreachable = 0;
};

SerialRun RunSerial(const WorkloadSpec& workload, Tracer* tracer,
                    uint64_t txns) {
  auto cluster = BuildCluster(workload, tracer);
  MR_CHECK(cluster.ok()) << cluster.status().ToString();
  std::unique_ptr<Cluster> c = std::move(cluster).value();
  auto loop = std::make_unique<ClosedLoop>(c.get(), /*seed=*/42,
                                           workload.write_share,
                                           /*outstanding=*/1);
  std::vector<SiteId> all;
  for (SiteId id = 0; id < kSites; ++id) all.push_back(id);
  MR_CHECK(loop->RunPhase(all, txns, false, false, Seconds(60)));
  const miniraid::ClusterStats stats = c->Stats();
  c.reset();
  return SerialRun{stats.messages_sent, stats.committed, stats.aborted,
                   stats.unreachable};
}

bool TracedStackMatchesMakeCluster(const WorkloadSpec& workload) {
  constexpr uint64_t kTxns = 300;
  const SerialRun plain = RunSerial(workload, nullptr, kTxns);
  Tracer tracer(kSites + 1);
  const SerialRun traced = RunSerial(workload, &tracer, kTxns);
  const bool ok = plain.msgs == traced.msgs &&
                  plain.committed == traced.committed &&
                  plain.aborted == traced.aborted &&
                  plain.unreachable == traced.unreachable;
  const std::string name =
      "traced_stack_matches_make_cluster/" + std::string(workload.name);
  return Report(name.c_str(), ok,
                miniraid::StrFormat(
                    "msgs/txn %.4f vs %.4f, committed %llu vs %llu, aborted "
                    "%llu vs %llu",
                    double(plain.msgs) / kTxns, double(traced.msgs) / kTxns,
                    (unsigned long long)plain.committed,
                    (unsigned long long)traced.committed,
                    (unsigned long long)plain.aborted,
                    (unsigned long long)traced.aborted));
}

bool ThreadCpuSumsToProcessCpu() {
  const WorkloadSpec& workload = *FindWorkload("inproc-readmostly");
  auto cluster = BuildCluster(workload, nullptr);
  MR_CHECK(cluster.ok()) << cluster.status().ToString();
  std::unique_ptr<Cluster> c = std::move(cluster).value();
  auto loop = std::make_unique<ClosedLoop>(c.get(), 3, workload.write_share);
  std::vector<SiteId> all;
  for (SiteId id = 0; id < kSites; ++id) all.push_back(id);
  MR_CHECK(loop->RunPhase(all, 5000, false, false, Seconds(60)));
  const ThreadSamples threads_start = SampleThreads();
  const ProcessSample proc_start = SampleProcess();
  loop->StartPhase(all, 0, false, false);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const ThreadSamples threads_end = SampleThreads();
  const ProcessSample proc_end = SampleProcess();
  loop->StopPhase();
  MR_CHECK(loop->WaitDrained(Seconds(30)));
  std::set<pid_t> tids;
  for (const auto& [tid, sample] : threads_end) tids.insert(tid);
  const double threads_ms =
      Delta(threads_start, threads_end, tids).cpu_ns / 1e6;
  const double process_ms = double(proc_end.cpu_us - proc_start.cpu_us) / 1e3;
  c.reset();
  // schedstat is exact to the last context switch or tick; rusage is
  // sampled a moment later. Allow one 10 ms tick per thread.
  const double tolerance = 10.0 * double(tids.size());
  return Report("thread_cpu_sums_to_process_cpu",
                std::fabs(threads_ms - process_ms) <= tolerance,
                miniraid::StrFormat("threads %.2f ms, process %.2f ms, "
                                    "tolerance %.0f ms (%zu threads)",
                                    threads_ms, process_ms, tolerance,
                                    tids.size()));
}

int RunSelfTests() {
  bool ok = GeneratorIsPureFunctionOfSeed();
  ok = TracedStackMatchesMakeCluster(*FindWorkload("inproc-readmostly")) && ok;
  ok = TracedStackMatchesMakeCluster(*FindWorkload("tcp-batch-write")) && ok;
  ok = ThreadCpuSumsToProcessCpu() && ok;
  std::printf("selftest %s\n", ok ? "all passed" : "FAILED");
  return ok ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) FailStep("arguments", "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--source") {
      args.source = value;
    } else {
      FailStep("arguments", "unknown flag " + flag);
    }
  }
  if (!args.selftest &&
      (args.seconds < 1 || args.seconds > 60 ||
       (args.trace != 0 && args.trace != 1))) {
    FailStep("arguments", "--seconds must be 1..60 and --trace 0 or 1");
  }
  return args;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold after the first large free, so a
  // later cluster's tables may come from reused heap instead of fresh
  // pages; set-up time and peak RSS then fall into two modes by chance.
  // A fixed threshold (glibc's default value) gives every cluster fresh
  // pages.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  miniraid::SetLogLevel(miniraid::LogLevel::kError);
  const e2ebench::Args args = e2ebench::ParseArgs(argc, argv);
  if (args.selftest) return e2ebench::RunSelfTests();
  return e2ebench::RunWorkload(args);
}

// Extension bench: concurrent transaction processing (the paper's "complete
// RAID" future-work direction), now driven through the unified Cluster API
// and the closed-loop workload driver.
//
// Section 1 reproduces the simulator scaling table: committed transactions
// per second of *virtual* time as the submission window grows, coordinators
// round-robin across sites. Serial submission (window = 1) is the paper's
// configuration; larger windows overlap distinct coordinators' two-phase
// commits.
//
// Section 2 is the real-runtime gate: on the in-process backend it compares
// a literal serial RunTxn loop against pipelined submission with a window
// of 8 and reports the wall-clock speedup (expected >= 2x).
//
//   bench_concurrent_throughput [--smoke] [--json[=PATH]]
//
// --smoke shrinks every phase for CI; --json writes one JSON object with
// the section-2 numbers (default path BENCH_throughput.json).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/logging.h"
#include "core/cluster.h"
#include "txn/driver.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

struct Config {
  uint32_t sim_txns = 400;
  uint32_t real_txns = 400;
  std::string json_path;  // empty = no JSON output
};

UniformWorkloadOptions WorkloadConfig() {
  UniformWorkloadOptions wopts;
  wopts.db_size = 50;
  wopts.max_txn_size = 3;
  return wopts;
}

std::unique_ptr<Cluster> Make(const ClusterOptions& options) {
  auto cluster = MakeCluster(options);
  MR_CHECK(cluster.ok()) << cluster.status().ToString();
  return std::move(*cluster);
}

// -- section 1: simulator window scaling ------------------------------------

DriverReport MeasureSim(uint32_t window, uint32_t n_sites, uint32_t txns) {
  ClusterOptions options;
  options.backend = ClusterBackend::kSim;
  options.n_sites = n_sites;
  options.db_size = 50;
  options.site.costs = CostModel::PaperCalibrated();
  options.site.ack_timeout = Seconds(5);
  options.sim.shared_cpu = false;  // a site per machine: real overlap
  options.transport.message_latency = Milliseconds(9);
  options.max_inflight = window;
  auto cluster = Make(options);

  UniformWorkload workload(WorkloadConfig());
  DriverOptions dopts;
  dopts.concurrency = window;
  dopts.measure_txns = txns;
  return Driver(cluster.get(), &workload, dopts).Run();
}

void RunSimSection(const Config& config) {
  std::printf("=== Extension: concurrent transaction throughput (paper's "
              "future-work direction) ===\n");
  std::printf("config: db=50, max txn size=3, 9 ms messages, one CPU per "
              "site, %u txns,\ncoordinators round-robin; window = "
              "outstanding transactions (virtual time)\n\n",
              config.sim_txns);
  std::printf("%-8s | %-24s | %-24s\n", "window", "4 sites (txn/s virtual)",
              "8 sites (txn/s virtual)");
  for (const uint32_t window : {1u, 2u, 4u, 8u, 16u}) {
    const DriverReport four = MeasureSim(window, 4, config.sim_txns);
    const DriverReport eight = MeasureSim(window, 8, config.sim_txns);
    std::printf("%-8u | %11.1f (%.0f%% ok) | %11.1f (%.0f%% ok)\n", window,
                four.CommittedPerSec(),
                100.0 * double(four.committed) / double(four.submitted),
                eight.CommittedPerSec(),
                100.0 * double(eight.committed) / double(eight.submitted));
  }
  std::printf("\nExpected shape: throughput rises with the window until the "
              "per-site serial\nexecution saturates (~n_sites concurrent "
              "coordinations), with everything\nstill committing — "
              "last-writer-wins keeps replicas convergent without a\nlock "
              "manager (reads are not serializable; see "
              "tests/concurrency_test.cc).\n\n");
}

// -- section 2: real in-process runtime, serial vs pipelined ----------------

ClusterOptions RealOptions(uint32_t window) {
  ClusterOptions options;
  options.backend = ClusterBackend::kInProc;
  options.n_sites = 4;
  options.db_size = 50;
  options.site.ack_timeout = Seconds(2);
  options.managing.client_timeout = Seconds(20);
  options.max_inflight = window;
  // Emulated inter-site link latency (the paper measured 9 ms per message;
  // 1 ms keeps the bench quick). This is what serial submission pays on
  // every hop of every transaction and what pipelining overlaps.
  options.inproc.message_latency = Milliseconds(1);
  return options;
}

/// The pre-pipelining submission pattern, kept literal on purpose: one
/// RunTxn at a time, next submission only after the previous reply. A
/// warmup prefix settles connections, allocators and the scheduler before
/// the timed section.
DriverReport MeasureRealSerial(uint32_t warmup, uint32_t txns) {
  auto cluster = Make(RealOptions(0));
  UniformWorkload workload(WorkloadConfig());
  for (uint32_t i = 0; i < warmup; ++i) {
    (void)cluster->RunTxn(workload.Next(), static_cast<SiteId>(i % 4));
  }
  DriverReport report;
  const TimePoint start = cluster->Now();
  for (uint32_t i = 0; i < txns; ++i) {
    const TxnResult reply =
        cluster->RunTxn(workload.Next(), static_cast<SiteId>(i % 4));
    ++report.submitted;
    if (reply.outcome == TxnOutcome::kCommitted) {
      ++report.committed;
    } else if (reply.outcome == TxnOutcome::kCoordinatorUnreachable) {
      ++report.unreachable;
    } else {
      ++report.aborted;
    }
  }
  report.elapsed = cluster->Now() - start;
  report.completed = true;
  return report;
}

DriverReport MeasureRealPipelined(uint32_t window, uint32_t warmup,
                                  uint32_t txns) {
  auto cluster = Make(RealOptions(window));
  UniformWorkload workload(WorkloadConfig());
  DriverOptions dopts;
  dopts.concurrency = window;
  dopts.warmup_txns = warmup;
  dopts.measure_txns = txns;
  return Driver(cluster.get(), &workload, dopts).Run();
}

/// Best of `reps` runs: wall-clock throughput on a shared machine is noisy
/// (scheduler interference shows up as one-sided slowdowns), so the
/// per-variant best is the stable comparison point.
template <typename MeasureFn>
DriverReport BestOf(uint32_t reps, const MeasureFn& measure) {
  DriverReport best;
  for (uint32_t i = 0; i < reps; ++i) {
    DriverReport report = measure();
    if (i == 0 || report.CommittedPerSec() > best.CommittedPerSec()) {
      best = std::move(report);
    }
  }
  return best;
}

bool RunRealSection(const Config& config) {
  constexpr uint32_t kWindow = 8;
  constexpr uint32_t kReps = 3;
  const uint32_t warmup = config.real_txns / 4;
  std::printf("=== Real runtime (in-process queues): serial RunTxn loop vs "
              "pipelined window=%u (best of %u) ===\n", kWindow, kReps);
  const DriverReport serial = BestOf(kReps, [&] {
    return MeasureRealSerial(warmup, config.real_txns);
  });
  const DriverReport pipelined = BestOf(kReps, [&] {
    return MeasureRealPipelined(kWindow, warmup, config.real_txns);
  });
  std::printf("serial    : %s\n", serial.Summary().c_str());
  std::printf("window=%u  : %s\n", kWindow, pipelined.Summary().c_str());
  const double speedup =
      serial.CommittedPerSec() > 0
          ? pipelined.CommittedPerSec() / serial.CommittedPerSec()
          : 0.0;
  const bool pass = speedup >= 2.0;
  std::printf("speedup: %.2fx (gate: >= 2x) %s\n\n", speedup,
              pass ? "PASS" : "FAIL");

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << "{\"bench\": \"concurrent_throughput\", \"backend\": \"inproc\", "
        << "\"window\": " << kWindow << ",\n  \"serial\": "
        << serial.ToJson("serial") << ",\n  \"pipelined\": "
        << pipelined.ToJson("window8") << ",\n  \"speedup\": " << speedup
        << ", \"pass\": " << (pass ? "true" : "false") << "}\n";
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return pass;
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  miniraid::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.sim_txns = 60;
      config.real_txns = 120;
    } else if (arg == "--json") {
      config.json_path = "BENCH_throughput.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = arg.substr(std::strlen("--json="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  miniraid::RunSimSection(config);
  return miniraid::RunRealSection(config) ? 0 : 1;
}

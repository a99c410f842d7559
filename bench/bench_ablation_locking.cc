// Ablation for the intra-site concurrency extension: what the per-item 2PL
// lock manager buys when ONE coordinator site runs many transactions
// through execute -> prepare -> commit concurrently, versus the serial
// engine (one coordination at a time, everything else queued).
//
// It sweeps ConcurrencyOptions::max_executors through a single
// coordinator on the simulator (9 ms message latency, one CPU per site,
// zero CPU costs — the latency-dominated regime where overlap is the whole
// story). Serial mode spends every message round-trip idle; two-phase
// locking overlaps the rounds of independent transactions while per-item
// locks keep conflicting ones ordered. The gate requires > 5x committed
// txn/s over serial at max_executors=16 with replicas convergent (zero
// invariant violations).
//
//   bench_ablation_locking [--smoke] [--json[=PATH]]
//
// --smoke shrinks the phases for CI; --json writes one JSON object with the
// sweep and the gate verdict (default path BENCH_concurrency.json).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/cluster.h"
#include "txn/driver.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

struct Config {
  uint32_t txns = 300;
  std::string json_path;  // empty = no JSON output
};

struct SweepRow {
  uint32_t executors = 0;
  bool locking = false;
  DriverReport report;
  uint64_t lock_waits = 0;
  uint64_t aborts_conflict = 0;
  bool replicas_agree = false;
};

ClusterOptions BaseOptions(uint32_t db_size) {
  ClusterOptions options;
  options.n_sites = 4;
  options.db_size = db_size;
  options.site.ack_timeout = Seconds(5);
  options.sim.shared_cpu = false;  // a site per machine: real overlap
  options.transport.message_latency = Milliseconds(9);
  return options;
}

// -- executor sweep through one coordinator ---------------------------------

SweepRow MeasureSweep(bool locking, uint32_t executors, uint32_t txns) {
  ClusterOptions options = BaseOptions(/*db_size=*/64);
  options.site.concurrency.mode = locking ? ConcurrencyMode::kTwoPhaseLocking
                                          : ConcurrencyMode::kSerial;
  options.site.concurrency.max_executors = executors;
  // Keep the admission queue fed but below the site's queue bound.
  const uint32_t window = std::min(2 * executors, 48u);
  options.max_inflight = window;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  UniformWorkloadOptions wopts;
  wopts.db_size = 64;
  wopts.max_txn_size = 3;
  wopts.seed = 7;
  UniformWorkload workload(wopts);

  DriverOptions dopts;
  dopts.concurrency = window;
  dopts.measure_txns = txns;
  dopts.coordinator_for = [](uint64_t) { return SiteId{0}; };  // ONE site

  SweepRow row;
  row.executors = executors;
  row.locking = locking;
  row.report = Driver(&cluster, &workload, dopts).Run();
  const SiteCounters& counters = cluster.site(0).counters();
  row.lock_waits = counters.lock_waits;
  row.aborts_conflict = counters.txns_aborted_lock_conflict;
  row.replicas_agree =
      cluster.CheckReplicaAgreement().ok() && cluster.CheckInvariants().empty();
  return row;
}

bool RunSweepSection(const Config& config, std::vector<SweepRow>* rows,
                     double* speedup_out) {
  std::printf("=== Ablation: intra-site concurrency (per-item 2PL) vs the "
              "serial engine ===\n");
  std::printf("config: 4 sites, db=64, txn size <= 3, 9 ms messages, zero "
              "CPU costs,\n%u txns, ALL through coordinator site 0 "
              "(virtual time)\n\n", config.txns);
  std::printf("%-8s %-10s %12s %10s %12s %12s %8s\n", "mode", "executors",
              "txn/s", "committed", "lock waits", "lock aborts", "agree");

  const SweepRow serial = MeasureSweep(/*locking=*/false, 1, config.txns);
  rows->push_back(serial);
  std::vector<SweepRow> locked;
  for (const uint32_t executors : {1u, 4u, 8u, 16u}) {
    locked.push_back(MeasureSweep(/*locking=*/true, executors, config.txns));
    rows->push_back(locked.back());
  }
  bool all_agree = serial.replicas_agree;
  auto print = [](const SweepRow& row) {
    std::printf("%-8s %-10u %12.1f %10llu %12llu %12llu %8s\n",
                row.locking ? "2PL" : "serial", row.executors,
                row.report.CommittedPerSec(),
                (unsigned long long)row.report.committed,
                (unsigned long long)row.lock_waits,
                (unsigned long long)row.aborts_conflict,
                row.replicas_agree ? "yes" : "NO");
  };
  print(serial);
  for (const SweepRow& row : locked) {
    print(row);
    all_agree = all_agree && row.replicas_agree;
  }

  const SweepRow& wide = locked.back();
  const double speedup =
      serial.report.CommittedPerSec() > 0
          ? wide.report.CommittedPerSec() / serial.report.CommittedPerSec()
          : 0.0;
  *speedup_out = speedup;
  const bool pass = speedup > 5.0 && all_agree;
  std::printf("\nspeedup at %u executors: %.2fx (gate: > 5x, replicas "
              "convergent) %s\n\n", wide.executors, speedup,
              pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  miniraid::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.txns = 80;
    } else if (arg == "--json") {
      config.json_path = "BENCH_concurrency.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = arg.substr(std::strlen("--json="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  std::vector<miniraid::SweepRow> rows;
  double speedup = 0.0;
  const bool pass = miniraid::RunSweepSection(config, &rows, &speedup);

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << "{\"bench\": \"ablation_locking\", \"backend\": \"sim\", "
        << "\"coordinator\": 0,\n  \"sweep\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      const miniraid::SweepRow& row = rows[i];
      out << (i ? ",\n    " : "\n    ") << "{\"mode\": \""
          << (row.locking ? "2pl" : "serial") << "\", \"executors\": "
          << row.executors << ", \"report\": "
          << row.report.ToJson(row.locking ? "2pl" : "serial")
          << ", \"lock_waits\": " << row.lock_waits << ", \"lock_aborts\": "
          << row.aborts_conflict << ", \"replicas_agree\": "
          << (row.replicas_agree ? "true" : "false") << "}";
    }
    out << "],\n  \"speedup\": " << speedup << ", \"gate\": 5.0, \"pass\": "
        << (pass ? "true" : "false") << "}\n";
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return pass ? 0 : 1;
}

// Reproduces Experiment 2 / Figure 1 of Bhargava, Noll & Sabo: data
// availability on a recovering site. Two sites, 50-item hot set, max
// transaction size 5. Site 0 fails before transaction 1; transactions
// 1-100 run on site 1 (fail-locking most of site 0's copies); site 0 then
// recovers and transactions run until every fail-lock clears.
//
// Paper observations reproduced here: >90% of copies fail-locked after 100
// transactions; ~160 further transactions to full recovery; the first 10
// fail-locks clear in ~6 transactions while the last 10 take ~106; only 2
// copier transactions are requested during recovery.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/strings.h"
#include "core/experiments.h"
#include "metrics/series.h"

namespace miniraid {
namespace {

void MaybeWriteCsv(const char* path, const std::vector<Series>& series) {
  if (path == nullptr) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  WriteCsv(out, "txn", series);
  std::printf("(series written to %s)\n", path);
}

void Run(const char* csv_path) {
  Exp2Config config;
  config.scenario.seed = 5;

  const Exp2Result result = RunExperiment2(config);

  std::printf("=== Experiment 2 (Figure 1): data availability during "
              "failure and recovery ===\n");
  std::printf("config: 2 sites, db=50 items, max txn size=5, "
              "R/W mix=50/50, recovering-site coordinator weight=%.2f\n\n",
              config.recovering_site_weight);

  Series curve;
  curve.label = "fail-locks set for site 0";
  for (const TxnRecord& rec : result.scenario.txns) {
    curve.Add(double(rec.txn_no), double(rec.fail_locks_per_site[0]));
  }
  std::printf("%s\n",
              RenderAsciiChart({curve}, 72, 18, "transaction number",
                               "fail-locks")
                  .c_str());
  MaybeWriteCsv(csv_path, {curve});

  std::printf("%-52s %10s %10s\n", "quantity", "paper", "measured");
  std::printf("%-52s %10s %10u\n",
              "fail-locked copies after 100 txns (of 50)", ">45",
              result.peak_fail_locks);
  std::printf("%-52s %10s %10u\n", "txns to complete recovery", "~160",
              result.txns_to_full_recovery);
  std::printf("%-52s %10s %10u\n", "txns to clear first 10 fail-locks", "6",
              result.first10_txns);
  std::printf("%-52s %10s %10u\n", "txns to clear last 10 fail-locks", "106",
              result.last10_txns);
  std::printf("%-52s %10s %10u\n", "copier txns during recovery", "2",
              result.copier_txns);
  std::printf("%-52s %10s %10s\n", "replica agreement at end", "yes",
              result.scenario.consistency.ok() ? "yes" : "NO");
  std::printf("\n");

  // The paper reports one trace; the tail of the recovery is a coupon-
  // collector time with large variance, so also report a 10-seed summary.
  std::printf("10-seed summary (the paper's run is one draw from this "
              "distribution):\n");
  double total_sum = 0, last10_sum = 0, first10_sum = 0, copier_sum = 0;
  uint32_t total_min = ~0u, total_max = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Exp2Config c = config;
    c.scenario.seed = seed;
    const Exp2Result r = RunExperiment2(c);
    total_sum += r.txns_to_full_recovery;
    first10_sum += r.first10_txns;
    last10_sum += r.last10_txns;
    copier_sum += r.copier_txns;
    total_min = std::min(total_min, r.txns_to_full_recovery);
    total_max = std::max(total_max, r.txns_to_full_recovery);
  }
  std::printf("  txns to full recovery: mean=%.0f min=%u max=%u "
              "(paper: 160)\n",
              total_sum / 10, total_min, total_max);
  std::printf("  first 10 fail-locks:   mean=%.0f txns (paper: 6)\n",
              first10_sum / 10);
  std::printf("  last 10 fail-locks:    mean=%.0f txns (paper: 106)\n",
              last10_sum / 10);
  std::printf("  copier transactions:   mean=%.1f (paper: 2)\n",
              copier_sum / 10);
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  // One optional argument: a path to dump the Figure-1 series as CSV.
  // Anything else (a flag, a second argument) is a usage error.
  for (int i = 1; i < argc; ++i) {
    if (i > 1 || argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  miniraid::Run(argc > 1 ? argv[1] : nullptr);
  return 0;
}

// Reproduces Experiment 3 scenario 2 / Figure 3: database inconsistency
// under successive single-site failures, 4 sites. Each site is down for 25
// transactions in turn (processed on the remaining sites); all sites are up
// for transactions 101-160.
//
// Paper observations: each site's curve has the single-site recovery shape;
// because the sites fail singly and in succession, an up-to-date copy of
// every item is always available somewhere, so no transaction aborts.

#include <cstdio>
#include <fstream>

#include "core/experiments.h"
#include "metrics/series.h"

namespace miniraid {
namespace {

void Run(const char* csv_path) {
  ScenarioConfig config;
  config.seed = 1;

  const Exp3Result result = RunExperiment3Scenario2(config);

  std::printf("=== Experiment 3 scenario 2 (Figure 3): database "
              "inconsistency, successive failures ===\n");
  std::printf("config: 4 sites, db=50 items, max txn size=5\n\n");

  std::vector<Series> series(4);
  for (SiteId s = 0; s < 4; ++s) {
    series[s].label = "site " + std::to_string(s);
  }
  for (const TxnRecord& rec : result.scenario.txns) {
    for (SiteId s = 0; s < 4; ++s) {
      series[s].Add(double(rec.txn_no), double(rec.fail_locks_per_site[s]));
    }
  }
  std::printf("%s\n", RenderAsciiChart(series, 72, 16, "transaction number",
                                       "fail-locks")
                          .c_str());
  if (csv_path != nullptr) {
    std::ofstream out(csv_path);
    if (out) {
      WriteCsv(out, "txn", series);
      std::printf("(series written to %s)\n", csv_path);
    }
  }

  std::printf("%-56s %8s %8s\n", "quantity", "paper", "measured");
  for (SiteId s = 0; s < 4; ++s) {
    std::printf("peak fail-locks, site %u%35s %8s %8u\n", s, "", "~25",
                result.peak_per_site[s]);
  }
  std::printf("%-56s %8s %8llu\n",
              "aborted transactions (data unavailable)", "0",
              (unsigned long long)result.scenario.aborted_data_unavailable);
  std::printf("%-56s %8s %8llu\n",
              "aborts while a failure was still undetected", "n/a",
              (unsigned long long)result.scenario.aborted_participant_failure);
  std::printf("%-56s %8s %8s\n", "replica agreement at end", "yes",
              result.scenario.consistency.ok() ? "yes" : "NO");
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  // One optional argument: a path to dump the Figure-3 series as CSV.
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

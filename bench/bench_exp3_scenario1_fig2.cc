// Reproduces Experiment 3 scenario 1 / Figure 2: database inconsistency
// under alternating site failures, 2 sites. Site 0 is down for transactions
// 1-25 (processed on site 1); site 0 comes up and site 1 goes down for
// transactions 26-50 (processed on site 0, which is itself still
// recovering); both are up for transactions 51-120.
//
// Paper observations: each site's fail-lock curve has the single-site
// recovery shape; during 26-50 some of site 0's fail-locked items are
// totally unavailable (the only fresh copy is on the down site 1), forcing
// site 0 to abort 13 transactions whose reads demanded copier transactions
// that no operational site could serve.

#include <cstdio>
#include <fstream>

#include "core/experiments.h"
#include "metrics/series.h"

namespace miniraid {
namespace {

void Run(const char* csv_path) {
  ScenarioConfig config;
  config.seed = 2;

  const Exp3Result result = RunExperiment3Scenario1(config);

  std::printf("=== Experiment 3 scenario 1 (Figure 2): database "
              "inconsistency, alternating failures ===\n");
  std::printf("config: 2 sites, db=50 items, max txn size=5\n\n");

  Series s0{"site 0", {}, {}};
  Series s1{"site 1", {}, {}};
  for (const TxnRecord& rec : result.scenario.txns) {
    s0.Add(double(rec.txn_no), double(rec.fail_locks_per_site[0]));
    s1.Add(double(rec.txn_no), double(rec.fail_locks_per_site[1]));
  }
  std::printf("%s\n", RenderAsciiChart({s0, s1}, 72, 16,
                                       "transaction number", "fail-locks")
                          .c_str());
  if (csv_path != nullptr) {
    std::ofstream out(csv_path);
    if (out) {
      WriteCsv(out, "txn", {s0, s1});
      std::printf("(series written to %s)\n", csv_path);
    }
  }

  std::printf("%-56s %8s %8s\n", "quantity", "paper", "measured");
  std::printf("%-56s %8s %8u\n", "peak fail-locks, site 0", "~25",
              result.peak_per_site[0]);
  std::printf("%-56s %8s %8u\n", "peak fail-locks, site 1", "~25",
              result.peak_per_site[1]);
  std::printf("%-56s %8s %8llu\n",
              "aborts at site 0 (no up-to-date copy reachable)", "13",
              (unsigned long long)result.scenario.aborts_by_coordinator[0]);
  std::printf("%-56s %8s %8s\n", "replica agreement at end", "yes",
              result.scenario.consistency.ok() ? "yes" : "NO");

  // Multi-seed summary for the abort count.
  double aborts_sum = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioConfig c = config;
    c.seed = seed;
    aborts_sum += double(
        RunExperiment3Scenario1(c).scenario.aborts_by_coordinator[0]);
  }
  std::printf("\n10-seed mean aborts at site 0: %.1f (paper: 13)\n",
              aborts_sum / 10);
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  // One optional argument: a path to dump the Figure-2 series as CSV.
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

// End-to-end checks that the experiment runners reproduce the paper's
// published numbers (Experiment 1, calibrated compositions) and shapes
// (Experiments 2 and 3). Tolerances on Experiment 1 are tight because the
// simulator is deterministic; Experiments 2-3 assert the structural claims
// that hold across seeds.

#include "core/experiments.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.h"

namespace miniraid {
namespace {

void ExpectNearPct(double value, double target, double pct) {
  EXPECT_GE(value, target * (1 - pct / 100.0));
  EXPECT_LE(value, target * (1 + pct / 100.0));
}

std::string OneDecimal(double value) { return StrFormat("%.1f", value); }

TEST(Experiment1Test, FailLockOverheadMatchesPaperTable) {
  Exp1Config config;
  config.measured_txns = 100;
  const Exp1FailLockOverheadResult r = RunExp1FailLockOverhead(config);
  ExpectNearPct(r.coord_without_ms, 176.0, 5);
  ExpectNearPct(r.coord_with_ms, 186.0, 5);
  ExpectNearPct(r.part_without_ms, 90.0, 8);
  ExpectNearPct(r.part_with_ms, 97.0, 8);
  // The paper's conclusion: maintenance is a slight overhead (a few %).
  const double delta_pct =
      100.0 * (r.coord_with_ms - r.coord_without_ms) / r.coord_without_ms;
  EXPECT_GT(delta_pct, 1.0);
  EXPECT_LT(delta_pct, 12.0);
}

TEST(Experiment1Test, ControlTransactionCostsMatchPaper) {
  const Exp1ControlResult r = RunExp1Control(Exp1Config{});
  ExpectNearPct(r.type1_recovering_ms, 190.0, 8);
  ExpectNearPct(r.type1_operational_ms, 50.0, 8);
  ExpectNearPct(r.type2_ms, 68.0, 8);
  // Structural claim: type 1 at the recoverer costs more than at an
  // operational site (it spans the whole exchange).
  EXPECT_GT(r.type1_recovering_ms, r.type1_operational_ms);
}

TEST(Experiment1Test, CopierTransactionCostsMatchPaper) {
  const Exp1CopierResult r = RunExp1Copier(Exp1Config{});
  ExpectNearPct(r.txn_with_copier_ms, 270.0, 10);
  ExpectNearPct(r.txn_plain_ms, 186.0, 5);
  ExpectNearPct(r.copy_serve_ms, 25.0, 15);
  ExpectNearPct(r.clear_locks_ms, 20.0, 15);
  // The headline: a copier transaction costs roughly +45%.
  EXPECT_GT(r.increase_pct, 30.0);
  EXPECT_LT(r.increase_pct, 60.0);
}

TEST(Experiment1Test, ScalingShapes) {
  // Type-1-at-operational and type-2 are independent of the site count
  // (paper §2.2.2); coordinator time and type-1-at-recoverer grow with it.
  // Small case has 3 sites: with 2, a type-2 announcement has no third
  // site to go to and the receive-side cost is unobservable.
  Exp1Config small;
  small.n_sites = 3;
  small.measured_txns = 40;
  Exp1Config large;
  large.n_sites = 8;
  large.measured_txns = 40;
  const Exp1ControlResult c_small = RunExp1Control(small);
  const Exp1ControlResult c_large = RunExp1Control(large);
  EXPECT_NEAR(c_small.type2_ms, c_large.type2_ms, 2.0);
  EXPECT_NEAR(c_small.type1_operational_ms, c_large.type1_operational_ms,
              6.0);
  EXPECT_GT(c_large.type1_recovering_ms, c_small.type1_recovering_ms);
  const double coord_small = RunExp1FailLockOverhead(small).coord_with_ms;
  const double coord_large = RunExp1FailLockOverhead(large).coord_with_ms;
  EXPECT_GT(coord_large, coord_small * 1.4);
}

TEST(Experiment2Test, RecoveryTraceHasPaperShape) {
  Exp2Config config;
  config.scenario.seed = 5;
  const Exp2Result r = RunExperiment2(config);
  // ">90% of the copies on site 0" fail-locked after 100 transactions.
  EXPECT_GE(r.peak_fail_locks, 45u);
  EXPECT_LE(r.peak_fail_locks, 50u);
  // Full recovery happens, in the same regime as the paper's 160.
  EXPECT_GE(r.txns_to_full_recovery, 40u);
  EXPECT_LE(r.txns_to_full_recovery, 400u);
  // The clearing rate decays: the last 10 take longer than the first 10.
  EXPECT_GT(r.last10_txns, r.first10_txns);
  // Few copier transactions with the paper's routing (paper: 2).
  EXPECT_LE(r.copier_txns, 6u);
  EXPECT_TRUE(r.scenario.consistency.ok())
      << r.scenario.consistency.ToString();
}

TEST(Experiment2Test, MonotoneRiseAndFall) {
  Exp2Config config;
  config.scenario.seed = 3;
  const Exp2Result r = RunExperiment2(config);
  // While site 0 is down the count never decreases; during recovery it
  // never increases.
  uint32_t prev = 0;
  for (const TxnRecord& rec : r.scenario.txns) {
    const uint32_t count = rec.fail_locks_per_site[0];
    if (rec.txn_no <= 100) {
      EXPECT_GE(count, prev) << "txn " << rec.txn_no;
    } else {
      EXPECT_LE(count, prev) << "txn " << rec.txn_no;
    }
    prev = count;
  }
}

TEST(Experiment3Test, Scenario1AlternatingFailuresAbortOnUnavailableData) {
  ScenarioConfig config;
  config.seed = 2;
  const Exp3Result r = RunExperiment3Scenario1(config);
  // Paper: 13 aborts at site 0 because copier targets were down. Across
  // seeds this lands in the low teens; structural claim: strictly > 0.
  EXPECT_GT(r.scenario.aborted_data_unavailable, 4u);
  EXPECT_LT(r.scenario.aborted_data_unavailable, 22u);
  EXPECT_EQ(r.scenario.aborts_by_coordinator[0],
            r.scenario.aborted_data_unavailable);
  EXPECT_TRUE(r.scenario.consistency.ok())
      << r.scenario.consistency.ToString();
}

TEST(Experiment3Test, Scenario2SuccessiveFailuresNeverLoseData) {
  ScenarioConfig config;
  config.seed = 1;
  const Exp3Result r = RunExperiment3Scenario2(config);
  // Paper: "the sites were able to recover without any aborted transactions
  // due to data being unavailable."
  EXPECT_EQ(r.scenario.aborted_data_unavailable, 0u);
  // Every site accumulated inconsistency while down...
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_GT(r.peak_per_site[s], 10u) << "site " << s;
  }
  // ...and each site's inconsistency is well below its peak by the end.
  // (The paper's run stops at transaction 160; the coupon-collector tail
  // means the curves approach zero without necessarily reaching it.)
  const auto& final_counts = r.scenario.txns.back().fail_locks_per_site;
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_LT(final_counts[s], r.peak_per_site[s] / 2) << "site " << s;
  }
  EXPECT_TRUE(r.scenario.consistency.ok())
      << r.scenario.consistency.ToString();
}

TEST(PaperReproductionTest, PinnedToExperimentsMd) {
  // Every figure EXPERIMENTS.md records for the bench_exp* runs, exactly.
  // The tolerance tests above would let a protocol change shift these
  // unseen (one more round per transaction moves the participant time by
  // several ms and stays inside their 8%); the simulator is deterministic,
  // so any drift here is a change to the paper's reproduction.
  const Exp1Config exp1;
  const Exp1FailLockOverheadResult overhead = RunExp1FailLockOverhead(exp1);
  EXPECT_EQ(OneDecimal(overhead.coord_without_ms), "176.4");
  EXPECT_EQ(OneDecimal(overhead.coord_with_ms), "186.5");
  EXPECT_EQ(OneDecimal(overhead.part_without_ms), "91.9");
  EXPECT_EQ(OneDecimal(overhead.part_with_ms), "97.0");
  const Exp1ControlResult control = RunExp1Control(exp1);
  EXPECT_EQ(OneDecimal(control.type1_recovering_ms), "190.0");
  EXPECT_EQ(OneDecimal(control.type1_operational_ms), "50.0");
  EXPECT_EQ(OneDecimal(control.type2_ms), "68.0");
  const Exp1CopierResult copier = RunExp1Copier(exp1);
  EXPECT_EQ(OneDecimal(copier.txn_with_copier_ms), "266.5");
  EXPECT_EQ(OneDecimal(copier.txn_plain_ms), "186.5");
  EXPECT_EQ(OneDecimal(copier.copy_serve_ms), "25.0");
  EXPECT_EQ(OneDecimal(copier.clear_locks_ms), "19.0");

  // Experiment 2 (Figure 1): the seed-5 trace and the 10-seed summary.
  Exp2Config exp2;
  exp2.scenario.seed = 5;
  const Exp2Result fig1 = RunExperiment2(exp2);
  EXPECT_EQ(fig1.peak_fail_locks, 48u);
  EXPECT_EQ(fig1.txns_to_full_recovery, 144u);
  EXPECT_EQ(fig1.first10_txns, 5u);
  EXPECT_EQ(fig1.last10_txns, 93u);
  EXPECT_EQ(fig1.copier_txns, 1u);
  EXPECT_TRUE(fig1.scenario.consistency.ok());
  uint32_t total = 0, first10 = 0, last10 = 0, copiers = 0;
  uint32_t fastest = ~0u, slowest = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    exp2.scenario.seed = seed;
    const Exp2Result r = RunExperiment2(exp2);
    total += r.txns_to_full_recovery;
    first10 += r.first10_txns;
    last10 += r.last10_txns;
    copiers += r.copier_txns;
    fastest = std::min(fastest, r.txns_to_full_recovery);
    slowest = std::max(slowest, r.txns_to_full_recovery);
  }
  EXPECT_EQ(StrFormat("%.0f", total / 10.0), "136");
  EXPECT_EQ(fastest, 74u);
  EXPECT_EQ(slowest, 219u);
  EXPECT_EQ(StrFormat("%.0f", first10 / 10.0), "9");
  EXPECT_EQ(StrFormat("%.0f", last10 / 10.0), "87");
  EXPECT_EQ(OneDecimal(copiers / 10.0), "0.8");

  // Experiment 3 scenario 1 (Figure 2): seed 2 and the 10-seed mean of
  // the aborts at site 0.
  ScenarioConfig scenario;
  scenario.seed = 2;
  const Exp3Result fig2 = RunExperiment3Scenario1(scenario);
  EXPECT_EQ(fig2.peak_per_site, (std::vector<uint32_t>{20, 22}));
  EXPECT_EQ(fig2.scenario.aborts_by_coordinator[0], 9u);
  EXPECT_EQ(fig2.scenario.aborted_data_unavailable, 9u);
  EXPECT_TRUE(fig2.scenario.consistency.ok());
  uint64_t aborts = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    scenario.seed = seed;
    aborts += RunExperiment3Scenario1(scenario).scenario
                  .aborts_by_coordinator[0];
  }
  EXPECT_EQ(OneDecimal(aborts / 10.0), "12.4");

  // Experiment 3 scenario 2 (Figure 3), seed 1.
  scenario.seed = 1;
  const Exp3Result fig3 = RunExperiment3Scenario2(scenario);
  EXPECT_EQ(fig3.peak_per_site, (std::vector<uint32_t>{31, 29, 22, 23}));
  EXPECT_EQ(fig3.scenario.aborted_data_unavailable, 0u);
  EXPECT_EQ(fig3.scenario.aborted_participant_failure, 4u);
  EXPECT_TRUE(fig3.scenario.consistency.ok());
}

TEST(ScenarioRunnerTest, DeterministicForSeed) {
  ScenarioConfig config;
  config.seed = 9;
  const Exp3Result a = RunExperiment3Scenario1(config);
  const Exp3Result b = RunExperiment3Scenario1(config);
  ASSERT_EQ(a.scenario.txns.size(), b.scenario.txns.size());
  for (size_t i = 0; i < a.scenario.txns.size(); ++i) {
    EXPECT_EQ(a.scenario.txns[i].outcome, b.scenario.txns[i].outcome);
    EXPECT_EQ(a.scenario.txns[i].fail_locks_per_site,
              b.scenario.txns[i].fail_locks_per_site);
  }
}

}  // namespace
}  // namespace miniraid

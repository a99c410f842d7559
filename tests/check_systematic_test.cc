// Tests for the systematic-execution checker (check/systematic.h): the
// canned scenarios are clean under the documented oracle, exploration is
// deterministic, golden recording round-trips through replay, and the
// deliberately strengthened oracle still finds the known crash-mid-commit
// fail-lock divergence (the reason agreement is demoted from invariant to
// nominal-regime observation).

#include "check/systematic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "check/trace_io.h"
#include "core/cluster.h"

namespace miniraid::check {
namespace {

SystematicOptions Scenario(std::string_view name) {
  std::optional<SystematicOptions> opts = ScenarioByName(name);
  EXPECT_TRUE(opts.has_value()) << name;
  return *opts;
}

TEST(SystematicTest, ScenarioRegistryIsConsistent) {
  for (std::string_view name : ScenarioNames()) {
    EXPECT_TRUE(ScenarioByName(name).has_value()) << name;
  }
  EXPECT_FALSE(ScenarioByName("no-such-scenario").has_value());
}

TEST(SystematicTest, SmokeScenarioIsCleanAndDeterministic) {
  SystematicOptions opts = Scenario("smoke");
  SystematicResult a = ExploreSystematic(opts);
  ASSERT_FALSE(a.counterexample.has_value())
      << a.counterexample->note;
  EXPECT_GT(a.executions, 1u);
  SystematicResult b = ExploreSystematic(opts);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.steps_total, b.steps_total);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(SystematicTest, SleepSetsPruneWithoutChangingTheVerdict) {
  SystematicOptions with_sleep = Scenario("smoke");
  SystematicOptions without = with_sleep;
  without.sleep_sets = false;
  SystematicResult pruned = ExploreSystematic(with_sleep);
  SystematicResult full = ExploreSystematic(without);
  EXPECT_FALSE(pruned.counterexample.has_value());
  EXPECT_FALSE(full.counterexample.has_value());
  EXPECT_GT(pruned.sleep_skips, 0u);
  EXPECT_LE(pruned.executions, full.executions);
}

TEST(SystematicTest, StrengthenedOracleFindsCrashMidCommitDivergence) {
  // With pointwise fail-lock agreement promoted back to an invariant, the
  // explorer must find the legitimate divergence: a participant crashing
  // mid-commit leaves the coordinator fail-locking the silent site's
  // copies while the acked participants cleared them. This documents WHY
  // SystematicOracleOptions() excludes the agreement check.
  SystematicOptions opts = Scenario("smoke");
  opts.invariants = InvariantChecker::Options{};  // everything on
  SystematicResult r = ExploreSystematic(opts);
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("FailLockAgreement"),
            std::string::npos)
      << r.violations.front();
  // The same schedule under the documented oracle replays clean: the
  // divergence is benign (the recovered site's own table carries the bit,
  // so local read safety holds).
  ReplayOutcome replay =
      ReplayTrace(*r.counterexample, SystematicOracleOptions());
  EXPECT_TRUE(replay.matched) << replay.mismatch;
  EXPECT_TRUE(replay.violations.empty())
      << replay.violations.front();
}

TEST(SystematicTest, GoldenTraceRoundTripsThroughJsonAndReplay) {
  SystematicOptions opts = Scenario("double-failure");
  CheckTrace golden = RecordGoldenTrace(opts);
  EXPECT_FALSE(golden.picks.empty());
  ASSERT_EQ(golden.picks.size(), golden.fanouts.size());

  // JSON round trip preserves every field replay depends on.
  Result<CheckTrace> parsed = TraceFromJson(TraceToJson(golden));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->picks, golden.picks);
  EXPECT_EQ(parsed->fanouts, golden.fanouts);
  EXPECT_EQ(parsed->actions.size(), golden.actions.size());

  ReplayOutcome out = ReplayTrace(*parsed);
  EXPECT_TRUE(out.matched) << out.mismatch;
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(SystematicTest, ReplayDetectsFanoutDivergence) {
  CheckTrace golden = RecordGoldenTrace(Scenario("smoke"));
  ASSERT_FALSE(golden.fanouts.empty());
  // Corrupt a recorded fanout: the replay contract requires the live
  // option count to match at every choice point.
  golden.fanouts[0] += 1;
  ReplayOutcome out = ReplayTrace(golden);
  EXPECT_FALSE(out.matched);
  EXPECT_NE(out.mismatch.find("fanout"), std::string::npos) << out.mismatch;
}

TEST(SystematicTest, InterleavedTwoPhaseLockingScenarioIsClean) {
  // The 2PL scenario runs two conflicting coordinations through one site
  // with a participant down; a trimmed sweep must stay violation-free and
  // the recorded trace must carry the concurrency configuration through
  // JSON so replay reconstructs the same engine.
  SystematicOptions opts = Scenario("interleaved-2pl");
  EXPECT_TRUE(opts.concurrency.locking());
  opts.max_executions = 500;
  SystematicResult r = ExploreSystematic(opts);
  EXPECT_FALSE(r.counterexample.has_value()) << r.counterexample->note;

  CheckTrace golden = RecordGoldenTrace(opts);
  Result<CheckTrace> parsed = TraceFromJson(TraceToJson(golden));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->concurrency.locking());
  EXPECT_EQ(parsed->concurrency.max_executors, 2u);
  ReplayOutcome out = ReplayTrace(*parsed);
  EXPECT_TRUE(out.matched) << out.mismatch;
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(SystematicTest, TraceUnderAnotherDeadlockPolicyIsRefused) {
  // Wait-die is the engine's only deadlock policy. Traces no longer name
  // it; an older trace that names it still reads, and one recorded under
  // any other policy is refused with an error naming that policy.
  const std::string json =
      TraceToJson(RecordGoldenTrace(Scenario("interleaved-2pl")));
  EXPECT_EQ(json.find("deadlock_policy"), std::string::npos);
  const std::string key = "\"max_executors\": 2";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  auto with_policy = [&](const std::string& policy) {
    std::string out = json;
    out.insert(at + key.size(), ", \"deadlock_policy\": \"" + policy + "\"");
    return out;
  };
  EXPECT_TRUE(TraceFromJson(with_policy("wait-die")).ok());
  for (const std::string policy : {"wound-wait", "timeout"}) {
    Result<CheckTrace> parsed = TraceFromJson(with_policy(policy));
    ASSERT_FALSE(parsed.ok()) << policy;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find("\"" + policy + "\""),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SystematicTest, TraceWithGroupCommitIsRefused) {
  // Every transaction commits in its own 2PC round. An older trace whose
  // "batching" block leaves group commit off still reads; one recorded
  // with max_batch > 1 is refused with an error naming it.
  const std::string json =
      TraceToJson(RecordGoldenTrace(Scenario("interleaved-2pl")));
  EXPECT_EQ(json.find("batching"), std::string::npos);
  const std::string key = "\"note\": ";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  auto with_max_batch = [&](int max_batch) {
    std::string out = json;
    out.insert(at, "\"batching\": {\"max_batch\": " +
                       std::to_string(max_batch) + "},\n  ");
    return out;
  };
  EXPECT_TRUE(TraceFromJson(with_max_batch(1)).ok());
  Result<CheckTrace> parsed = TraceFromJson(with_max_batch(2));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("max_batch 2"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SystematicTest, ReadOnlyScenarioIsCleanAndEndsWithACopier) {
  SystematicOptions opts = Scenario("read-only-2pl");
  EXPECT_TRUE(opts.concurrency.locking());
  opts.max_executions = 500;
  SystematicResult r = ExploreSystematic(opts);
  EXPECT_FALSE(r.counterexample.has_value()) << r.counterexample->note;

  // The schedule run one action at a time: the last read refreshes site
  // 2's fail-locked copy through a copier and sees the overlapping write.
  ClusterOptions copts;
  copts.n_sites = opts.n_sites;
  copts.db_size = opts.db_size;
  copts.site.concurrency = opts.concurrency;
  copts.transport.message_latency = 0;
  std::unique_ptr<SimCluster> cluster = MakeSimCluster(copts);
  TxnResult last;
  for (const ScheduleAction& action : opts.actions) {
    switch (action.kind) {
      case ScheduleAction::Kind::kSubmit:
        last = cluster->RunTxn(action.txn, action.site);
        EXPECT_EQ(CheckCommittedReads(last, opts.actions), "");
        break;
      case ScheduleAction::Kind::kFail:
        cluster->Fail(action.site);
        break;
      case ScheduleAction::Kind::kRecover:
        cluster->Recover(action.site);
        break;
    }
  }
  EXPECT_EQ(last.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(last.copier_count, 1u);
  ASSERT_EQ(last.reads.size(), 1u);
  EXPECT_EQ(last.reads[0].version, 3u);
}

TEST(SystematicTest, ReadCheckAcceptsOnlyScenarioWrites) {
  const std::vector<ScheduleAction> schedule =
      Scenario("read-only-2pl").actions;
  TxnResult result;
  result.txn = 9;
  result.reads = {ItemCopy{0, 0, 0}, ItemCopy{0, WriteValueFor(3, 0), 3}};
  EXPECT_EQ(CheckCommittedReads(result, schedule), "");
  // A value its version's writer never wrote.
  result.reads.push_back(ItemCopy{0, WriteValueFor(3, 0) + 1, 3});
  EXPECT_NE(CheckCommittedReads(result, schedule), "");
  // Transaction 4 only reads item 0, so no copy can carry its version.
  result.reads.back() = ItemCopy{0, WriteValueFor(4, 0), 4};
  EXPECT_NE(CheckCommittedReads(result, schedule), "");
  // Only committed reads are checked.
  result.outcome = TxnOutcome::kAbortedLockConflict;
  EXPECT_EQ(CheckCommittedReads(result, schedule), "");
}

// Every canned scenario's full exploration, pinned: an engine change that
// alters any message, timer or lock-grant order shows up as a different
// execution count or fingerprint. A change that means to alter behaviour
// updates this table and says why, as it does for the analyzer's
// effects_golden.txt. About 8 s for all seven on an optimized build.
struct PinnedExploration {
  const char* scenario;
  uint64_t executions;
  uint64_t fingerprint;
};

class PinnedExplorationTest
    : public ::testing::TestWithParam<PinnedExploration> {};

TEST_P(PinnedExplorationTest, KeepsItsExecutionCountAndFingerprint) {
  const PinnedExploration& pin = GetParam();
  const SystematicResult r = ExploreSystematic(Scenario(pin.scenario));
  EXPECT_FALSE(r.counterexample.has_value()) << r.counterexample->note;
  EXPECT_EQ(r.executions, pin.executions);
  EXPECT_EQ(r.fingerprint, pin.fingerprint)
      << std::hex << "got " << r.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PinnedExplorationTest,
    ::testing::Values(
        PinnedExploration{"smoke", 206, 0x2f50baf01b01f5efull},
        PinnedExploration{"recovery-skew", 3927, 0xddc38f7428ea9f1full},
        PinnedExploration{"recovery-window", 119, 0x981b5674d899f750ull},
        PinnedExploration{"double-failure", 20000, 0x61e0acefae4bc87eull},
        PinnedExploration{"interleaved-2pl", 51046, 0x9e046c983e9eeee4ull},
        PinnedExploration{"read-only-2pl", 10806, 0xaf8c9b3e9f81140cull}),
    [](const ::testing::TestParamInfo<PinnedExploration>& info) {
      std::string name = info.param.scenario;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(SystematicTest, RecoveryScenariosAreCleanWithinBudget) {
  for (std::string_view name : {"recovery-window", "double-failure"}) {
    SystematicOptions opts = Scenario(name);
    // Trim budgets so the whole loop stays test-sized; exhaustive sweeps
    // run in minicheck --smoke and CI.
    opts.max_executions = std::min<uint64_t>(opts.max_executions, 300);
    SystematicResult r = ExploreSystematic(opts);
    EXPECT_FALSE(r.counterexample.has_value())
        << name << ": " << r.counterexample->note;
  }
}

}  // namespace
}  // namespace miniraid::check

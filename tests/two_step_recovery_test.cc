// Tests of the paper's §3.2 two-step recovery proposal: below the
// threshold, a recovering site issues copier transactions in batch mode
// instead of waiting for reads to demand them.

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/experiments.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

ClusterOptions Options(double threshold, uint32_t chunk) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 20;
  options.site.batch_copier_threshold = threshold;
  options.site.batch_copier_chunk = chunk;
  return options;
}

/// Fails site 1, makes `n` of its copies stale, recovers it, and returns
/// the cluster for inspection.
std::unique_ptr<SimCluster> StaleRecovery(const ClusterOptions& options,
                                          uint32_t n_stale) {
  auto cluster = MakeSimCluster(options);
  cluster->Fail(1);
  (void)cluster->RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0);  // detect
  TxnId txn = 2;
  for (uint32_t item = 0; item < n_stale; ++item) {
    (void)cluster->RunTxn(
        MakeTxn(txn, {Operation::Write(item, Value(100 + item))}), 0);
    ++txn;
  }
  cluster->Recover(1);
  return cluster;
}

TEST(TwoStepRecoveryTest, ThresholdOneRefreshesEverythingImmediately) {
  auto cluster = StaleRecovery(Options(1.0, 5), 12);
  // Recover() ran to quiescence: batch copiers fired in waves of 5 until
  // nothing was stale — zero transactions needed.
  EXPECT_EQ(cluster->site(1).OwnFailLockCount(), 0u);
  EXPECT_GE(cluster->site(1).counters().batch_copier_transactions, 3u);
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok());
  // The refreshed values are the real ones.
  EXPECT_EQ(cluster->site(1).db().Read(3)->value, 103);
  // And the operational site's table was cleared by the special txns.
  EXPECT_EQ(cluster->site(0).fail_locks().CountForSite(1), 0u);
}

TEST(TwoStepRecoveryTest, AboveThresholdStaysOnDemand) {
  // 12 of 20 stale = 60% > 30% threshold: step one (on-demand) only.
  auto cluster = StaleRecovery(Options(0.3, 5), 12);
  EXPECT_EQ(cluster->site(1).counters().batch_copier_transactions, 0u);
  EXPECT_EQ(cluster->site(1).OwnFailLockCount(), 12u);
}

TEST(TwoStepRecoveryTest, CrossingThresholdEntersBatchMode) {
  // 12 stale (60%); threshold 50%. Writes clear a few; once the fraction
  // dips to <= 50% the recovering site finishes the rest itself.
  auto cluster = StaleRecovery(Options(0.5, 4), 12);
  ASSERT_EQ(cluster->site(1).OwnFailLockCount(), 12u);
  TxnId txn = 100;
  // Each write to a stale item clears one lock; after two (10/20 = 50%),
  // batch mode kicks in at the next idle point and drains the rest.
  (void)cluster->RunTxn(MakeTxn(txn++, {Operation::Write(0, 1)}), 0);
  EXPECT_EQ(cluster->site(1).OwnFailLockCount(), 11u);  // still step one
  (void)cluster->RunTxn(MakeTxn(txn++, {Operation::Write(1, 2)}), 0);
  EXPECT_EQ(cluster->site(1).OwnFailLockCount(), 0u);  // step two drained
  EXPECT_GE(cluster->site(1).counters().batch_copier_transactions, 3u);
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok());
}

TEST(TwoStepRecoveryTest, BatchAbandonedWhenNoSourceAvailable) {
  // The batch copier must not spin forever if the only fresh copies are on
  // a site that just failed.
  ClusterOptions options = Options(1.0, 5);
  options.n_sites = 3;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0);  // detect
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(5, 55)}), 0);
  // Both 0 and 1 are fresh. Fail them BOTH... then site 2 cannot recover
  // its stale copies; but our scenario needs an up site for announcements.
  cluster.Fail(1);
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(6, 66)}), 0);  // detect 1
  (void)cluster.RunTxn(MakeTxn(4, {Operation::Write(5, 56)}), 0);
  // Now item 5 and 6 are fresh only at site 0. Fail site 0 after site 2
  // recovers? Simpler: recover site 2 while only site 0 is fresh, then
  // fail site 0 mid-batch is hard to time; instead verify the abandoned
  // path with a drop filter in a dedicated cluster below.
  cluster.Recover(2);
  // Batch copiers ran against site 0 successfully.
  EXPECT_EQ(cluster.site(2).OwnFailLockCount(), 0u);
}

TEST(TwoStepRecoveryTest, BatchSurvivesSilentCopySource) {
  // Drop every CopyReply from site 0 so batch copier requests time out:
  // the site must give up (and retry later) rather than hang or crash.
  ClusterOptions options = Options(1.0, 5);
  options.faults.drop_filter = [](const Message& msg) {
    return msg.type == MsgType::kCopyReply && msg.from == 0;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(1);
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(1, 2)}), 0);
  cluster.Recover(1);
  cluster.RunUntilIdle();
  // Locks remain (the copies never arrived) but the system is quiescent
  // and the copies can still be refreshed by writes.
  EXPECT_GE(cluster.site(1).OwnFailLockCount(), 1u);
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(0, 3)}), 0);
  (void)cluster.RunTxn(MakeTxn(4, {Operation::Write(1, 4)}), 0);
  EXPECT_EQ(cluster.site(1).OwnFailLockCount(), 0u);
}

}  // namespace
}  // namespace miniraid

#include <gtest/gtest.h>

#include "baselines/baseline_cluster.h"
#include "txn/transaction.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

BaselineClusterOptions Options(BaselineKind kind, uint32_t n_sites) {
  BaselineClusterOptions options;
  options.kind = kind;
  options.n_sites = n_sites;
  options.db_size = 8;
  options.managing.client_timeout = Seconds(8);
  return options;
}

TEST(RowaStrictTest, CommitsAndReplicatesWhenAllUp) {
  BaselineCluster cluster(Options(BaselineKind::kRowaStrict, 3));
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 22)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.site_counters(1).commits_handled, 1u);
  EXPECT_EQ(cluster.site_counters(2).commits_handled, 1u);
}

TEST(RowaStrictTest, AnyFailureBlocksAllUpdates) {
  BaselineCluster cluster(Options(BaselineKind::kRowaStrict, 3));
  cluster.Fail(2);
  for (TxnId t = 1; t <= 3; ++t) {
    const TxnResult reply =
        cluster.RunTxn(MakeTxn(t, {Operation::Write(1, 10)}), 0);
    EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed)
        << "txn " << t;
  }
}

TEST(RowaStrictTest, FaultsStackTheSameLayerAsAMiniRaidCluster) {
  // BaselineClusterOptions::faults reaches the sites through the fault
  // layer, as ClusterOptions::faults does: a Prepare lost on its way to
  // site 2 blocks the write like a failed site 2.
  BaselineClusterOptions options = Options(BaselineKind::kRowaStrict, 3);
  options.faults.drop_filter = [](const Message& msg) {
    return msg.type == MsgType::kPrepare && msg.to == 2;
  };
  BaselineCluster cluster(options);
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(1, 10)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
}

TEST(RowaStrictTest, ReadOnlyTransactionsSurviveFailures) {
  BaselineCluster cluster(Options(BaselineKind::kRowaStrict, 3));
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(1, 10)}), 0);
  cluster.Fail(2);
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(2, {Operation::Read(1)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 10);
}

TEST(RowaStrictTest, RecoveryCopiesWholeDatabase) {
  BaselineCluster cluster(Options(BaselineKind::kRowaStrict, 2));
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(3, 33)}), 0);
  cluster.Fail(1);
  // Updates blocked while down (the first aborts and detects nothing new —
  // strict ROWA has no session vectors; every update keeps trying).
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 34)}), 0);
  cluster.Recover(1);
  // After recovery the copy matches (it re-copied the whole database).
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(3, {Operation::Read(3)}), 1);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 33);  // txn 2 aborted; 33 is current
  EXPECT_EQ(cluster.UpSites().size(), 2u);
}

TEST(QuorumTest, CommitsWithMinorityDown) {
  BaselineCluster cluster(Options(BaselineKind::kQuorum, 3));
  cluster.Fail(2);
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(4, 44)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
}

TEST(QuorumTest, BlocksWithMajorityDown) {
  BaselineCluster cluster(Options(BaselineKind::kQuorum, 3));
  cluster.Fail(1);
  cluster.Fail(2);
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Read(0)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
}

TEST(QuorumTest, ReadQuorumMasksStaleRecoveredCopy) {
  BaselineCluster cluster(Options(BaselineKind::kQuorum, 3));
  cluster.Fail(2);
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(4, 44)}), 0);
  cluster.Recover(2);  // no refresh: site 2's copy of 4 is stale (version 0)
  // A read coordinated at the stale site still returns the fresh value:
  // the read quorum includes a fresh copy, and the max version wins.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(2, {Operation::Read(4)}), 2);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 44);
  EXPECT_EQ(reply.reads.at(0).version, 1u);
}

TEST(QuorumTest, WritesAdvanceVersionsMonotonically) {
  BaselineCluster cluster(Options(BaselineKind::kQuorum, 3));
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_EQ(cluster.RunTxn(MakeTxn(t, {Operation::Write(0, Value(t))}),
                             static_cast<SiteId>(t % 3))
                  .outcome,
              TxnOutcome::kCommitted);
  }
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(6, {Operation::Read(0)}), 1);
  EXPECT_EQ(reply.reads.at(0).value, 5);
  EXPECT_EQ(reply.reads.at(0).version, 5u);
}

TEST(QuorumTest, SingleSiteClusterTrivialQuorum) {
  BaselineCluster cluster(Options(BaselineKind::kQuorum, 1));
  const TxnResult reply = cluster.RunTxn(
      MakeTxn(1, {Operation::Write(0, 7), Operation::Read(0)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
}

}  // namespace
}  // namespace miniraid

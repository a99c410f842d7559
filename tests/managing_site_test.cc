#include "core/managing_site.h"

#include <gtest/gtest.h>

#include "core/cluster.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = {Operation::Write(0, 1)};
  return txn;
}

TEST(ManagingSiteTest, TalliesOutcomes) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 4;
  options.managing.client_timeout = Seconds(2);
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  EXPECT_EQ(cluster.RunTxn(MakeTxn(1), 0).outcome, TxnOutcome::kCommitted);
  cluster.Fail(1);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(2), 0).outcome,
            TxnOutcome::kAbortedParticipantFailed);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(3), 1).outcome,
            TxnOutcome::kCoordinatorUnreachable);

  const ManagingSite& managing = cluster.managing();
  EXPECT_EQ(managing.submitted(), 3u);
  EXPECT_EQ(managing.committed(), 1u);
  EXPECT_EQ(managing.aborted(), 1u);
  EXPECT_EQ(managing.unreachable(), 1u);
}

TEST(ManagingSiteTest, TimeoutSynthesizesUnreachableReply) {
  ClusterOptions options;
  options.n_sites = 2;
  options.managing.client_timeout = Milliseconds(500);
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(0);
  const TxnResult reply = cluster.RunTxn(MakeTxn(1), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCoordinatorUnreachable);
  EXPECT_EQ(reply.txn, 1u);
  EXPECT_FALSE(cluster.managing().HasPending());
}

TEST(ManagingSiteTest, LateReplyAfterTimeoutIgnored) {
  // Client timeout shorter than the transaction: the synthetic unreachable
  // fires first, and the real (late) reply must not double-count.
  ClusterOptions options;
  options.n_sites = 4;
  options.managing.client_timeout = Milliseconds(20);  // < 2PC round trips
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  const TxnResult reply = cluster.RunTxn(MakeTxn(1), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCoordinatorUnreachable);
  // The transaction itself still committed at the sites.
  EXPECT_EQ(cluster.site(0).db().Read(0)->value, 1);
  EXPECT_EQ(cluster.managing().submitted(), 1u);
  EXPECT_EQ(cluster.managing().committed(), 0u);
  EXPECT_EQ(cluster.managing().unreachable(), 1u);
  // The reply that lost the race is counted as a late outcome.
  EXPECT_EQ(cluster.managing().late_outcomes(), 1u);
}

TEST(ManagingSiteTest, CallbackInvokedExactlyOnce) {
  ClusterOptions options;
  options.n_sites = 2;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  int calls = 0;
  cluster.managing().Submit(MakeTxn(1), 0,
                            [&calls](const TxnResult&) { ++calls; });
  cluster.RunUntilIdle();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace miniraid

// Integration tests of the identical protocol engine on the real runtimes:
// event-loop threads with in-process queues, and TCP sockets on localhost.
// These validate the SiteRuntime/Transport abstraction boundary: nothing in
// the protocol may depend on virtual time.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cluster.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

ClusterOptions Options(ClusterBackend backend, uint32_t n_sites) {
  ClusterOptions options;
  options.backend = backend;
  options.n_sites = n_sites;
  options.db_size = 12;
  options.site.ack_timeout = Milliseconds(250);
  options.managing.client_timeout = Seconds(5);
  return options;
}

class RealClusterTest : public ::testing::TestWithParam<ClusterBackend> {
 protected:
  std::unique_ptr<Cluster> Make(uint32_t n_sites) {
    auto cluster = MakeCluster(Options(GetParam(), n_sites));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return std::move(*cluster);
  }
};

TEST_P(RealClusterTest, CommitReplicates) {
  auto cluster = Make(3);
  const TxnResult reply =
      cluster->RunTxn(MakeTxn(1, {Operation::Write(4, 44)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  const std::vector<SiteSnapshot> snaps = cluster->SnapshotSites();
  for (SiteId s = 0; s < 3; ++s) {
    ASSERT_TRUE(snaps[s].db[4].has_value()) << "site " << s;
    EXPECT_EQ(snaps[s].db[4]->value, 44) << "site " << s;
    EXPECT_EQ(snaps[s].db[4]->version, 1u) << "site " << s;
  }
}

TEST_P(RealClusterTest, FailureRecoveryRoundTrip) {
  auto cluster = Make(3);
  ASSERT_EQ(cluster->RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kCommitted);

  cluster->Fail(2);
  // First write detects the failure (abort), second proceeds via ROWAA.
  (void)cluster->RunTxn(MakeTxn(2, {Operation::Write(3, 33)}), 0);
  const TxnResult reply =
      cluster->RunTxn(MakeTxn(3, {Operation::Write(3, 34)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(cluster->SnapshotSites()[0].fail_locks.CountForSite(2), 1u);

  cluster->Recover(2);
  // Wait until the recovering site has its merged fail-lock table.
  ASSERT_TRUE(cluster->WaitUntil(
      2, [](const Site& site) { return site.OwnFailLockCount() >= 1; }));
  // A read at the recovering site triggers a copier transaction.
  const TxnResult read_reply =
      cluster->RunTxn(MakeTxn(4, {Operation::Read(3)}), 2);
  EXPECT_EQ(read_reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(read_reply.reads.at(0).value, 34);
  EXPECT_GE(read_reply.copier_count, 1u);
}

TEST_P(RealClusterTest, WorkloadBurstKeepsReplicasConsistent) {
  auto cluster = Make(3);
  UniformWorkloadOptions wopts;
  wopts.db_size = 12;
  wopts.max_txn_size = 5;
  wopts.seed = 3;
  UniformWorkload workload(wopts);
  for (int i = 0; i < 60; ++i) {
    (void)cluster->RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
  }
  const std::vector<SiteSnapshot> snaps = cluster->SnapshotSites();
  for (SiteId s = 0; s < 3; ++s) {
    for (ItemId item = 0; item < 12; ++item) {
      ASSERT_TRUE(snaps[s].db[item].has_value());
      EXPECT_EQ(snaps[s].db[item]->value, snaps[0].db[item]->value)
          << "site " << s << " item " << item;
      EXPECT_EQ(snaps[s].db[item]->version, snaps[0].db[item]->version)
          << "site " << s << " item " << item;
    }
  }
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok());
}

TEST_P(RealClusterTest, ReadOnlyTxnFinishesAtPhaseOneUnderLocking) {
  // Under 2PL a read-only transaction skips the commit round on the real
  // backends too: TxnRequest, 2 Prepare, 2 PrepareAck, TxnReply.
  ClusterOptions options = Options(GetParam(), 3);
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  auto made = MakeCluster(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto& cluster = **made;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(4, 44)}), 0).outcome,
            TxnOutcome::kCommitted);

  const uint64_t before = cluster.Stats().messages_sent;
  const TxnResult reply = cluster.RunTxn(
      MakeTxn(2, {Operation::Read(4), Operation::Read(5)}), 1);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(reply.reads.size(), 2u);
  EXPECT_EQ(reply.reads[0].value, 44);
  // A transport counts a message before its receiver can see it, so each
  // reply arrives with every message of its transaction already counted.
  EXPECT_EQ(cluster.Stats().messages_sent - before, 6u);
}

TEST_P(RealClusterTest, ReliableChannelRepairsLossOnRealRuntimes) {
  // The channel's retransmit timers and dedup state run on real event-loop
  // threads here, not virtual time — this is the wiring the sim-based
  // channel tests cannot cover. 10% loss + 5% duplication must be invisible
  // to clients: every transaction commits without a client timeout.
  ClusterOptions options = Options(GetParam(), 3);
  options.reliable.enabled = true;
  // The whole coordinator wait; nothing above the channel re-sends.
  options.site.ack_timeout = Microseconds(1187500);
  options.faults.drop_probability = 0.10;
  options.faults.duplicate_probability = 0.05;
  options.faults.seed = 3;
  auto made = MakeCluster(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto& cluster = **made;

  for (TxnId id = 1; id <= 30; ++id) {
    const TxnResult reply = cluster.RunTxn(
        MakeTxn(id, {Operation::Write(static_cast<ItemId>(id % 12),
                                      static_cast<Value>(100 + id))}),
        static_cast<SiteId>(id % 3));
    ASSERT_EQ(reply.outcome, TxnOutcome::kCommitted) << "txn " << id;
  }

  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.unreachable, 0u);
  EXPECT_EQ(stats.late_outcomes, 0u);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.channel.retransmits, 0u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST_P(RealClusterTest, TwoTcpClustersCoexistInOneProcess) {
  // Regression test for base_port = 0 collisions: two clusters stood up
  // back to back in one process must land on disjoint port ranges.
  auto first = Make(3);
  auto second = Make(3);
  EXPECT_EQ(first->RunTxn(MakeTxn(1, {Operation::Write(2, 5)}), 0).outcome,
            TxnOutcome::kCommitted);
  EXPECT_EQ(second->RunTxn(MakeTxn(1, {Operation::Write(2, 6)}), 1).outcome,
            TxnOutcome::kCommitted);
  EXPECT_EQ(first->SnapshotSites()[1].db[2]->value, 5);
  EXPECT_EQ(second->SnapshotSites()[1].db[2]->value, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, RealClusterTest,
    ::testing::Values(ClusterBackend::kInProc, ClusterBackend::kTcp),
    [](const ::testing::TestParamInfo<ClusterBackend>& info) {
      return std::string(ClusterBackendName(info.param));
    });

}  // namespace
}  // namespace miniraid

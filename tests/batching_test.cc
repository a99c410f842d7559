// Group commit (BatchingOptions) end to end: concurrent coordinations that
// share a participant set drain into one BatchPrepare/BatchCommit round,
// a batch of one degrades to the singleton wire exchange, coalesced
// fail-lock maintenance writes the same bits the singleton path would, a
// refused member aborts alone (its batch-mates commit), and the batch
// handlers tolerate duplicates / answer decision queries like their
// singleton counterparts.

#include <gtest/gtest.h>

#include "core/cluster.h"

namespace miniraid {
namespace {

constexpr SiteId kProbe = 77;  // unregistered endpoint injecting messages

ClusterOptions Options(uint32_t n_sites, uint32_t db_size = 12) {
  ClusterOptions options;
  options.n_sites = n_sites;
  options.db_size = db_size;
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  options.site.batching.max_batch = 4;
  // Generous linger (virtual time is free) so members submitted together
  // deterministically coalesce regardless of transport latency.
  options.site.batching.batch_linger = Milliseconds(50);
  return options;
}

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

std::vector<TxnResult> RunConcurrently(
    SimCluster& cluster,
    const std::vector<std::pair<TxnSpec, SiteId>>& batch) {
  std::vector<std::optional<TxnResult>> slots(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    cluster.managing().Submit(
        batch[i].first, batch[i].second,
        [&slots, i](const TxnResult& reply) { slots[i] = reply; });
  }
  cluster.RunUntilIdle();
  std::vector<TxnResult> replies;
  for (auto& slot : slots) {
    EXPECT_TRUE(slot.has_value()) << "missing reply";
    replies.push_back(slot.value_or(TxnResult{}));
  }
  return replies;
}

/// Captures everything sent to the probe id.
class Probe : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override { received.push_back(msg); }
  size_t CountOf(MsgType type) const {
    size_t n = 0;
    for (const Message& msg : received) {
      if (msg.type == type) ++n;
    }
    return n;
  }
  std::vector<Message> received;
};

TEST(BatchingTest, SharedParticipantSetDrainsInOneBatchRound) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Disjoint write sets, same coordinator: under full replication both
  // coordinations pin the identical participant set and coalesce.
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  const SiteCounters& coord = cluster.site(0).counters();
  EXPECT_EQ(coord.batch_rounds_coordinated, 1u);
  EXPECT_EQ(coord.batch_members_coordinated, 2u);
  EXPECT_EQ(coord.txns_committed, 2u);
  // One BatchPrepare frame per participant carrying both members (each
  // staged member still counts under prepares_handled).
  for (SiteId s = 1; s <= 2; ++s) {
    EXPECT_EQ(cluster.site(s).counters().batch_prepares_handled, 1u)
        << "site " << s;
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 2u) << "site " << s;
    EXPECT_EQ(cluster.site(s).db().Read(0)->value, 10);
    EXPECT_EQ(cluster.site(s).db().Read(1)->value, 20);
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, BatchingOffByDefaultEvenUnderLocking) {
  ClusterOptions options = Options(3);
  options.site.batching = BatchingOptions{};  // max_batch = 1: disabled
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 0u);
  for (SiteId s = 1; s <= 2; ++s) {
    EXPECT_EQ(cluster.site(s).counters().batch_prepares_handled, 0u);
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 2u) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, BatchOfOneDegradesToTheSingletonExchange) {
  // A lone ready coordination must leave no trace of batching on the wire:
  // the forming batch of one flushes through the exact singleton send path
  // (same kPrepare frame bytes), so participants count a plain prepare.
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(3, 30)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 0u);
  EXPECT_EQ(cluster.site(0).counters().batch_members_coordinated, 0u);
  for (SiteId s = 1; s <= 2; ++s) {
    EXPECT_EQ(cluster.site(s).counters().batch_prepares_handled, 0u);
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 1u) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, CoalescedMaintenanceWritesTheSingletonFailLocks) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Fail site 2 and let a throwaway transaction detect and announce it.
  cluster.Fail(2);
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kAbortedParticipantFailed);

  // A batched pair commits at {0, 1}; the coalesced maintenance must set
  // the down site's bit for BOTH written items at both participants —
  // exactly what two singleton maintenance passes would have written.
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(2, {Operation::Write(5, 50)}), 0},
                {MakeTxn(3, {Operation::Write(6, 60)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  for (SiteId viewer : {0u, 1u}) {
    const FailLockTable& table = cluster.site(viewer).fail_locks();
    EXPECT_TRUE(table.IsSet(5, 2)) << "viewer " << viewer;
    EXPECT_TRUE(table.IsSet(6, 2)) << "viewer " << viewer;
    EXPECT_FALSE(table.IsSet(5, 0));
    EXPECT_FALSE(table.IsSet(6, 1));
  }

  // Recovery + copier repair converge the tables, as after singletons.
  cluster.Recover(2);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(4, {Operation::Read(5), Operation::Read(6)}),
                           2)
                .outcome,
            TxnOutcome::kCommitted);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_FALSE(cluster.site(s).fail_locks().IsSet(5, 2)) << "site " << s;
    EXPECT_FALSE(cluster.site(s).fail_locks().IsSet(6, 2)) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, RefusedMemberAbortsAloneBatchMatesCommit) {
  // Contention: an older writer from another coordinator holds item 1
  // while a batch {txn on item 0, txn on item 1} forms at coordinator 0.
  // Whatever interleaving the simulator produces, the uncontended member
  // (item 0) must always commit — a batch-mate's wait-die refusal aborts
  // only the refused member, never the whole batch.
  for (uint32_t round = 0; round < 8; ++round) {
    auto cluster_owner = MakeSimCluster(Options(3));
    SimCluster& cluster = *cluster_owner;
    const TxnId base = 10 * (round + 1);
    // Ids: the contending writer is OLDER (smaller id) than the batch
    // members, so under wait-die the batch member requesting item 1 is the
    // one refused when they collide.
    const auto replies = RunConcurrently(
        cluster, {{MakeTxn(base + 1, {Operation::Write(1, 100)}), 1},
                  {MakeTxn(base + 2, {Operation::Write(0, 200)}), 0},
                  {MakeTxn(base + 3, {Operation::Write(1, 300)}), 0}});
    EXPECT_EQ(replies[1].outcome, TxnOutcome::kCommitted)
        << "round " << round << ": uncontended batch member must commit";
    for (const TxnResult& reply : replies) {
      EXPECT_TRUE(reply.outcome == TxnOutcome::kCommitted ||
                  reply.outcome == TxnOutcome::kAbortedLockConflict)
          << "round " << round;
    }
    EXPECT_TRUE(cluster.CheckReplicaAgreement().ok()) << "round " << round;
  }
}

TEST(BatchingTest, DuplicateBatchPrepareAfterCommitReAcksFromOutcomeCache) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  const uint64_t staged = cluster.site(1).counters().batch_prepares_handled;

  // Retransmit the whole batch from a probe: every member is in the
  // participant's recent-outcome cache as committed, so the site must ack
  // acceptance without re-staging anything or touching the database.
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  BatchPrepareArgs dup;
  dup.batch = 1;
  dup.participants = {0, 1, 2};
  dup.members = {BatchMember{1, {ItemWrite{0, 10}}},
                 BatchMember{2, {ItemWrite{1, 20}}}};
  (void)cluster.transport().Send(MakeMessage(kProbe, 1, std::move(dup)));
  cluster.RunUntilIdle();

  ASSERT_EQ(probe.CountOf(MsgType::kBatchPrepareAck), 1u);
  const auto& ack = probe.received.front().As<BatchPrepareAckArgs>();
  EXPECT_TRUE(ack.accepted);
  EXPECT_TRUE(ack.refused.empty());
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 2u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 1u);  // LWW: version = txn
  EXPECT_EQ(cluster.site(1).db().Read(1)->version, 2u);
  // batch_prepares_handled counts frames, and the duplicate frame still
  // arrived; but no member was staged anew.
  EXPECT_EQ(cluster.site(1).counters().batch_prepares_handled, staged + 1);
}

TEST(BatchingTest, DuplicateBatchCommitAfterTeardownReAcksWithoutReapplying) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  (void)RunConcurrently(cluster,
                        {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                         {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  const uint64_t committed = cluster.site(1).counters().commits_handled;

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, BatchCommitArgs{1, {1, 2}, {}}));
  cluster.RunUntilIdle();

  // Both members are cached as committed: the site re-acks the whole batch
  // (the retrying coordinator may still be waiting) without re-applying.
  EXPECT_EQ(probe.CountOf(MsgType::kBatchCommitAck), 1u);
  EXPECT_EQ(cluster.site(1).counters().commits_handled, committed);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 2u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 1u);  // LWW: version = txn
  EXPECT_EQ(cluster.site(1).db().Read(1)->version, 2u);
}

TEST(BatchingTest, PostBatchDecisionQueryAnswersEveryMember) {
  // Satellite of the group-commit change: the batch outcome demux must
  // record EACH member transaction individually, so an in-doubt
  // participant's later decision query about any one member is answered
  // from the cache — never by presumed abort.
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  (void)RunConcurrently(cluster,
                        {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                         {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(kProbe, 0, DecisionQueryArgs{1}));
  (void)cluster.transport().Send(MakeMessage(kProbe, 0, DecisionQueryArgs{2}));
  cluster.RunUntilIdle();

  EXPECT_EQ(probe.CountOf(MsgType::kCommit), 2u);
  EXPECT_EQ(probe.CountOf(MsgType::kAbort), 0u);
  EXPECT_EQ(cluster.site(0).counters().decision_queries_answered, 2u);
  EXPECT_EQ(cluster.site(0).counters().decisions_presumed_abort, 0u);
}

TEST(BatchingTest, InFlightDecisionQueryForBatchMemberResendsTheBatchFrame) {
  // A commit-phase batch member's in-flight decision is its batch frame
  // (PROTOCOL.md §8.4). Site 1 loses the first three BatchCommit frames and
  // queries the decision of each member; site 2 loses every BatchCommit
  // and crashes right after acking the prepare. Answering site 1 with the
  // batch frame keeps its ack on the batch, so the batch's commit timeout
  // still drops silent site 2 and the coalesced maintenance fail-locks its
  // copies. A singleton kCommit answer would let one CommitAck finish the
  // member outside the batch with site 2 still a participant: no fail-lock,
  // and the recovered site 2 would serve its stale copy without a copier.
  ClusterOptions options = Options(3);
  options.site.retry_limit = 3;
  bool site2_acked = false;
  int dropped_to_site1 = 0;
  options.transport.drop_filter = [&](const Message& msg) {
    if (msg.type == MsgType::kBatchPrepareAck && msg.from == 2) {
      site2_acked = true;
    }
    if (msg.type != MsgType::kBatchCommit) return false;
    return msg.to == 2 || (msg.to == 1 && dropped_to_site1++ < 3);
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  std::vector<std::optional<TxnResult>> replies(2);
  for (TxnId id : {1u, 2u}) {
    const TxnSpec txn = MakeTxn(id, {Operation::Write(id - 1, 10 * id)});
    cluster.managing().Submit(txn, 0, [&replies, id](const TxnResult& r) {
      replies[id - 1] = r;
    });
  }
  ASSERT_TRUE(cluster.Drive([&site2_acked] { return site2_acked; }));
  cluster.Fail(2);
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->outcome, TxnOutcome::kCommitted);
  }
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  EXPECT_GE(cluster.site(1).counters().decision_queries_sent, 1u);
  // Site 1 applied the frame with its prepare-time participant set, so
  // the coordinator's commit-timeout maintenance is what keeps the bits.
  EXPECT_TRUE(cluster.site(0).fail_locks().IsSet(0, 2));
  EXPECT_TRUE(cluster.site(0).fail_locks().IsSet(1, 2));

  cluster.Recover(2);
  const TxnResult read = cluster.RunTxn(MakeTxn(3, {Operation::Read(0)}), 2);
  ASSERT_EQ(read.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(read.reads.at(0).value, 10);
  EXPECT_EQ(cluster.site(2).counters().copier_transactions, 1u);
}

}  // namespace
}  // namespace miniraid

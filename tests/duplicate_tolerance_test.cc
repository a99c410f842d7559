// Regression tests for protocol-level duplicate tolerance: every handler a
// duplicating transport can hit twice must be idempotent — re-ack where
// the sender may still be waiting, no-op where re-applying would corrupt
// state. One test per audited gap; each injects the duplicate explicitly
// through the raw transport.

#include <gtest/gtest.h>

#include "core/cluster.h"

namespace miniraid {
namespace {

constexpr SiteId kProbe = 77;  // unregistered endpoint injecting duplicates

ClusterOptions Options(uint32_t n_sites, uint32_t db_size = 10) {
  ClusterOptions options;
  options.n_sites = n_sites;
  options.db_size = db_size;
  return options;
}

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
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

TEST(DuplicateToleranceTest, PrepareAfterCommittedTeardownIsReAcked) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 11)}), 0).outcome,
            TxnOutcome::kCommitted);
  const uint64_t prepares = cluster.site(1).counters().prepares_handled;

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(
      kProbe, 1, PrepareArgs{1, {ItemWrite{0, 11}}, {}, {0, 1}}));
  cluster.RunUntilIdle();

  // The participation is long torn down and the write applied: the site
  // must re-ack, repeating the answer the original got, without
  // re-staging or re-committing anything.
  EXPECT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);
  EXPECT_EQ(cluster.site(1).counters().prepares_handled, prepares);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->value, 11);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 1u);
}

TEST(DuplicateToleranceTest, PrepareAfterAbortedTeardownIsDropped) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);
  // Participant 1 stages the write and acks; participant 2 never answers,
  // so the coordinator aborts and site 1 discards the staging.
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kAbortedParticipantFailed);
  ASSERT_EQ(cluster.site(1).counters().aborts_handled, 1u);
  ASSERT_EQ(cluster.site(1).db().Read(0)->version, 0u);

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(
      kProbe, 1, PrepareArgs{1, {ItemWrite{0, 1}}, {}, {0, 1, 2}}));
  cluster.RunUntilIdle();

  // Re-staging a finished (aborted) transaction's writes would resurrect
  // it: the duplicate must vanish — no ack, no staging, no commit.
  EXPECT_EQ(probe.CountOf(MsgType::kPrepareAck), 0u);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 0u);
}

TEST(DuplicateToleranceTest, ReadOnlyPrepareUnderLockingIsReAckedStatelessly) {
  // Under 2PL a Prepare with no writes gets a read-only vote: the
  // participant keeps no Participation, so a duplicate is simply voted on
  // again, and nothing (no patience timer) waits for a Commit.
  ClusterOptions options = Options(2);
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  const Message prepare =
      MakeMessage(kProbe, 1, PrepareArgs{1, {}, {}, {0, 1}});
  (void)cluster.transport().Send(prepare);
  (void)cluster.transport().Send(prepare);
  while (probe.CountOf(MsgType::kPrepareAck) < 2 &&
         cluster.runtime().RunOne()) {
  }

  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 2u);
  for (const Message& ack : probe.received) {
    EXPECT_TRUE(ack.As<PrepareAckArgs>().accepted);
  }
  EXPECT_TRUE(cluster.site(1).IsIdle());
  EXPECT_TRUE(cluster.runtime().RunnableEvents().empty());
}

TEST(DuplicateToleranceTest, CommitAfterTeardownReAcksWithoutReapplying) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(3, 33)}), 0).outcome,
            TxnOutcome::kCommitted);
  const uint64_t commits = cluster.site(1).counters().commits_handled;
  ASSERT_EQ(cluster.site(1).db().Read(3)->version, 1u);

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(kProbe, 1, CommitArgs{1}));
  cluster.RunUntilIdle();

  // The commit already happened: re-ack (the original ack may have been
  // lost while the coordinator still waits) but never bump the version
  // again.
  EXPECT_EQ(probe.CountOf(MsgType::kCommitAck), 1u);
  EXPECT_EQ(cluster.site(1).counters().commits_handled, commits);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(3)->version, 1u);
}

TEST(DuplicateToleranceTest, AbortAfterTeardownIsANoOp) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(5, 50)}), 0).outcome,
            TxnOutcome::kCommitted);
  const uint64_t aborts = cluster.site(1).counters().aborts_handled;

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(kProbe, 1, AbortArgs{1}));
  cluster.RunUntilIdle();

  // A late Abort for a transaction that committed here must not (and
  // cannot) undo it; it is counted and discarded. The committed value
  // survives.
  EXPECT_EQ(cluster.site(1).counters().aborts_handled, aborts);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(5)->value, 50);
  EXPECT_TRUE(probe.received.empty());
}

TEST(DuplicateToleranceTest, EqualSessionReannounceReServesWithoutSideEffects) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(1);
  cluster.Recover(1);
  ASSERT_EQ(cluster.site(0).session_vector().session(1), 2u);
  ASSERT_TRUE(cluster.site(0).session_vector().IsUp(1));
  const uint64_t served = cluster.site(0).counters().control1_served;

  // The recovered site's original announce was served; a duplicate of the
  // SAME session's announce arrives late. The receiver re-serves its info
  // but must not mutate its vector or count a second control-1 service.
  (void)cluster.transport().Send(
      MakeMessage(1, 0, RecoveryAnnounceArgs{1, 2}));
  cluster.RunUntilIdle();

  EXPECT_EQ(cluster.site(0).counters().control1_served, served);
  EXPECT_GE(cluster.site(0).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).session_vector().session(1), 2u);
  EXPECT_TRUE(cluster.site(0).session_vector().IsUp(1));
  // The re-served RecoveryInfo lands at site 1, which is no longer
  // recovering: it too must treat the stray reply as a duplicate.
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 1u);
  EXPECT_TRUE(cluster.site(1).session_vector().IsUp(1));
}

TEST(DuplicateToleranceTest, StrayRecoveryInfoOutsideRecoveryIsIgnored) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  RecoveryInfoArgs info;
  info.session_vector = {SessionEntryWire{1, SiteStatus::kUp},
                         SessionEntryWire{1, SiteStatus::kUp}};
  info.fail_locks = {FailLockRow{0, 0b11}};  // would fail-lock everything
  (void)cluster.transport().Send(MakeMessage(kProbe, 0, info));
  cluster.RunUntilIdle();

  // No recovery in progress: adopting the table (or even unioning it)
  // would resurrect cleared fail-locks. Counted, dropped.
  EXPECT_GE(cluster.site(0).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).OwnFailLockCount(), 0u);
}

TEST(DuplicateToleranceTest, RepeatedTxnRequestRunsTheTransactionOnce) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  const Message request =
      MakeMessage(kProbe, 0, TxnRequestArgs{MakeTxn(
                                 5, {Operation::Write(2, 22)})});
  (void)cluster.transport().Send(request);
  cluster.RunUntilIdle();
  ASSERT_EQ(probe.CountOf(MsgType::kTxnReply), 1u);
  ASSERT_EQ(cluster.site(0).db().Read(2)->version, 5u);  // LWW: version = txn

  // The client (or a duplicating transport) re-sends the same request
  // after the outcome: it must not run again — no second reply, no second
  // coordination.
  (void)cluster.transport().Send(request);
  cluster.RunUntilIdle();
  EXPECT_EQ(probe.CountOf(MsgType::kTxnReply), 1u);
  EXPECT_EQ(cluster.site(0).counters().txns_coordinated, 1u);
  EXPECT_GE(cluster.site(0).counters().duplicate_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).db().Read(2)->version, 5u);
}

}  // namespace
}  // namespace miniraid

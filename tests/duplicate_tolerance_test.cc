// The guards that keep a message which does not belong to a site's live
// state from touching it. The reliable channel absorbs network duplicates
// below the engine (docs/PROTOCOL.md §8.4), so what still reaches these
// handlers is a late or stray message, or one that races another: a late
// Abort, a message of an earlier attempt of a transaction retried under
// its id, a RecoveryInfo outside a recovery, an equal-session announce.
// Each test injects its message explicitly through the raw sim transport.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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
  // cannot) undo it. The committed value survives.
  EXPECT_EQ(cluster.site(1).counters().aborts_handled, aborts);
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

  // Site 0 already records site 1 up at session 2 when an announce of that
  // same session arrives (AnnounceAfterAPrepareMergedItsSessionIsServed
  // shows how one can). The receiver re-serves its info but must not
  // mutate its vector or count a second control-1 service.
  (void)cluster.transport().Send(
      MakeMessage(1, 0, RecoveryAnnounceArgs{1, 2}));
  cluster.RunUntilIdle();

  EXPECT_EQ(cluster.site(0).counters().control1_served, served);
  EXPECT_GE(cluster.site(0).counters().stray_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).session_vector().session(1), 2u);
  EXPECT_TRUE(cluster.site(0).session_vector().IsUp(1));
  // The re-served RecoveryInfo lands at site 1, which is no longer
  // recovering: there it is stray, and dropped.
  EXPECT_GE(cluster.site(1).counters().stray_msgs_ignored, 1u);
  EXPECT_TRUE(cluster.site(1).session_vector().IsUp(1));
}

TEST(DuplicateToleranceTest, AnnounceAfterAPrepareMergedItsSessionIsServed) {
  // A coordinator that already served site 2's recovery piggybacks its
  // vector, site 2 up at session 2, on a Prepare. When that Prepare
  // reaches site 0 before site 2's own announce, SessionVector::MergeFrom
  // records site 2 up at session 2 first, so the announce then arrives at
  // an equal session. It is no second copy: site 2 still waits for site
  // 0's info, and must get it exactly once.
  ClusterOptions options = Options(3);
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  uint64_t infos_to_2 = 0;
  options.faults.drop_filter = [&infos_to_2](const Message& msg) {
    if (msg.type == MsgType::kRecoveryInfo && msg.to == 2) ++infos_to_2;
    return false;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);  // site 2 stays out of the way: only site 0 acts

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  // Read-only, so under 2PL the Prepare leaves no participation behind.
  const std::vector<SessionEntryWire> vector = {
      SessionEntryWire{1, SiteStatus::kUp},
      SessionEntryWire{1, SiteStatus::kUp},
      SessionEntryWire{2, SiteStatus::kUp}};
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 0, PrepareArgs{1, {}, vector, {kProbe, 0}}));
  cluster.RunUntilIdle();
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);
  ASSERT_EQ(cluster.site(0).session_vector().session(2), 2u);
  ASSERT_TRUE(cluster.site(0).session_vector().IsUp(2));
  ASSERT_EQ(infos_to_2, 0u);
  const uint64_t served = cluster.site(0).counters().control1_served;

  (void)cluster.transport().Send(
      MakeMessage(2, 0, RecoveryAnnounceArgs{2, 2}));
  cluster.RunUntilIdle();

  EXPECT_EQ(infos_to_2, 1u);
  EXPECT_EQ(cluster.site(0).counters().control1_served, served);
  EXPECT_EQ(cluster.site(0).session_vector().session(2), 2u);
  EXPECT_TRUE(cluster.site(0).session_vector().IsUp(2));
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
  EXPECT_GE(cluster.site(0).counters().stray_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).OwnFailLockCount(), 0u);
}

ClusterOptions LockingOptions(uint32_t n_sites) {
  ClusterOptions options = Options(n_sites);
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  return options;
}

/// A Prepare from the probe writing `item` of `txn`, under attempt
/// `attempt`; every site of a 3-site cluster is in its participant set, so
/// its commit sets no fail-lock.
Message ProbePrepare(SiteId to, TxnId txn, ItemId item, Value value,
                     uint64_t attempt) {
  return MakeMessage(kProbe, to,
                     PrepareArgs{txn, {ItemWrite{item, value}}, {}, {0, 1, 2},
                                 attempt});
}

TEST(DuplicateToleranceTest, PrepareForALiveParticipationIsRefused) {
  // Site 1 holds attempt 1 of txn 5 staged and locked. A Prepare of
  // another attempt under the same id must neither stage a second copy
  // nor go unanswered (its coordinator would time out and declare a live
  // site failed): it is refused, and attempt 1 is left as it was.
  auto cluster_owner = MakeSimCluster(LockingOptions(3));
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);

  (void)cluster.transport().Send(ProbePrepare(1, 5, 3, 30, /*attempt=*/1));
  (void)cluster.transport().Send(ProbePrepare(1, 5, 3, 31, /*attempt=*/2));
  cluster.runtime().RunFor(Milliseconds(100));

  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 2u);
  EXPECT_TRUE(probe.received[0].As<PrepareAckArgs>().accepted);
  EXPECT_EQ(probe.received[0].As<PrepareAckArgs>().attempt, 1u);
  EXPECT_FALSE(probe.received[1].As<PrepareAckArgs>().accepted);
  EXPECT_EQ(probe.received[1].As<PrepareAckArgs>().attempt, 2u);
  EXPECT_EQ(cluster.site(1).counters().stray_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(1).counters().prepares_handled, 1u);
  EXPECT_TRUE(cluster.site(1).lock_manager().Holds(3, 5));

  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{5, /*attempt=*/1}));
  cluster.RunUntilIdle();
  EXPECT_EQ(probe.CountOf(MsgType::kCommitAck), 1u);
  EXPECT_EQ(cluster.site(1).db().Read(3)->value, 30);
  EXPECT_TRUE(cluster.site(1).IsIdle());
}

TEST(DuplicateToleranceTest, EarlierAttemptsMessagesLeaveTheLiveOneStaged) {
  // A retry of txn 5 is staged at site 1 when messages of an earlier
  // attempt arrive: an Abort and a Commit from the coordinator under the
  // old number, and an Abort from another site (the earlier attempt's
  // coordinator) under the live number. None may apply, discard or
  // unlock the live staging.
  auto cluster_owner = MakeSimCluster(LockingOptions(3));
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);

  (void)cluster.transport().Send(ProbePrepare(1, 5, 3, 30, /*attempt=*/2));
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, AbortArgs{5, /*attempt=*/1}));
  (void)cluster.transport().Send(
      MakeMessage(0, 1, AbortArgs{5, /*attempt=*/2}));
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{5, /*attempt=*/1}));
  cluster.runtime().RunFor(Milliseconds(100));

  EXPECT_EQ(cluster.site(1).counters().aborts_handled, 0u);
  EXPECT_EQ(cluster.site(1).counters().commits_handled, 0u);
  EXPECT_EQ(cluster.site(1).counters().stray_msgs_ignored, 3u);
  EXPECT_TRUE(cluster.site(1).lock_manager().Holds(3, 5));
  EXPECT_EQ(probe.CountOf(MsgType::kCommitAck), 0u);

  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{5, /*attempt=*/2}));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.site(1).db().Read(3)->value, 30);
  EXPECT_TRUE(cluster.site(1).IsIdle());
}

TEST(DuplicateToleranceTest, RequestOrPrepareForALiveCoordinationTurnedAway) {
  // Site 0 coordinates txn 2, which waits for item 3's lock behind the
  // probe's younger txn 9 (wait-die: the older requester waits). A second
  // request under id 2 would alias that coordination: it is dropped, and
  // txn 2 still runs once. A Prepare of txn 2 from another coordinator
  // would stage and lock under the coordination's id: it is refused.
  auto cluster_owner = MakeSimCluster(LockingOptions(3));
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(ProbePrepare(0, 9, 3, 90, /*attempt=*/1));
  cluster.runtime().RunFor(Milliseconds(100));
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);

  const Message request = MakeMessage(
      kProbe, 0, TxnRequestArgs{MakeTxn(2, {Operation::Write(3, 20)})});
  (void)cluster.transport().Send(request);
  cluster.runtime().RunFor(Milliseconds(100));
  ASSERT_EQ(cluster.site(0).ActiveCoordinations(), 1u);
  (void)cluster.transport().Send(request);
  cluster.runtime().RunFor(Milliseconds(100));
  EXPECT_EQ(cluster.site(0).counters().stray_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(0).counters().txns_coordinated, 1u);
  EXPECT_EQ(probe.CountOf(MsgType::kTxnReply), 0u);

  (void)cluster.transport().Send(ProbePrepare(0, 2, 4, 21, /*attempt=*/7));
  cluster.runtime().RunFor(Milliseconds(100));
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 2u);
  EXPECT_FALSE(probe.received.back().As<PrepareAckArgs>().accepted);
  EXPECT_EQ(probe.received.back().As<PrepareAckArgs>().attempt, 7u);
  EXPECT_EQ(cluster.site(0).counters().stray_msgs_ignored, 2u);
  EXPECT_FALSE(cluster.site(0).lock_manager().Holds(4, 2));

  (void)cluster.transport().Send(
      MakeMessage(kProbe, 0, AbortArgs{9, /*attempt=*/1}));
  cluster.RunUntilIdle();
  ASSERT_EQ(probe.CountOf(MsgType::kTxnReply), 1u);
  EXPECT_EQ(probe.received.back().As<TxnResult>().outcome,
            TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(DuplicateToleranceTest, TxnRequestForALiveParticipationIsRefused) {
  // Site 0 still holds attempt 1 of txn 4 staged for another coordinator
  // when a retry of txn 4 arrives for site 0 to coordinate. Both would
  // lock under id 4, so the retry dies as a younger conflicting writer
  // would, and attempt 1 keeps its locks.
  auto cluster_owner = MakeSimCluster(LockingOptions(3));
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(ProbePrepare(0, 4, 3, 40, /*attempt=*/1));
  (void)cluster.transport().Send(MakeMessage(
      kProbe, 0, TxnRequestArgs{MakeTxn(4, {Operation::Write(5, 41)})}));
  cluster.runtime().RunFor(Milliseconds(100));

  ASSERT_EQ(probe.CountOf(MsgType::kTxnReply), 1u);
  const TxnResult reply = probe.received.back().As<TxnResult>();
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedLockConflict);
  EXPECT_TRUE(reply.retryable());
  EXPECT_EQ(cluster.site(0).counters().txns_coordinated, 0u);
  EXPECT_EQ(cluster.site(0).counters().stray_msgs_ignored, 1u);
  EXPECT_TRUE(cluster.site(0).lock_manager().Holds(3, 4));

  (void)cluster.transport().Send(
      MakeMessage(kProbe, 0, CommitArgs{4, /*attempt=*/1}));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.site(0).db().Read(3)->value, 40);
  EXPECT_TRUE(cluster.site(0).IsIdle());
}

TEST(DuplicateToleranceTest, CommitAckOfAnotherAttemptIsNotCounted) {
  // Coordinator 0 waits in txn 3's commit phase for site 1's CommitAck,
  // which is held back. One under another attempt number must not stand
  // in for it.
  ClusterOptions options = Options(2);
  std::vector<Message> held;
  options.faults.drop_filter = [&held](const Message& msg) {
    if (msg.type != MsgType::kCommitAck || !held.empty()) return false;
    held.push_back(msg);
    return true;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  std::optional<TxnResult> reply;
  cluster.managing().Submit(
      MakeTxn(3, {Operation::Write(2, 30)}), 0,
      [&reply](const TxnResult& result) { reply = result; });
  while (held.empty() && cluster.runtime().RunOne()) {
  }
  ASSERT_EQ(held.size(), 1u);
  CommitAckArgs other = held[0].As<CommitAckArgs>();
  ++other.attempt;
  (void)cluster.transport().Send(MakeMessage(1, 0, other));
  cluster.runtime().RunFor(Milliseconds(100));
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(cluster.site(0).counters().stray_msgs_ignored, 1u);

  (void)cluster.transport().Send(held[0]);
  cluster.RunUntilIdle();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(DuplicateToleranceTest, LateAcceptOfAnEarlierAttemptIsNotCounted) {
  // Txn 5 (write item 3) at coordinator 0 dies at site 2, where the
  // probe's older txn 1 holds item 3; site 1's accept of that attempt is
  // held back. The retry, under the same id, is in its prepare phase —
  // site 2 accepts, site 1 has not even received its Prepare — when the
  // held accept finally arrives. It must not count for the retry: the
  // coordinator would otherwise commit at a site that never prepared,
  // and declare that live site failed when no CommitAck came.
  ClusterOptions options = LockingOptions(3);
  bool hold = true;
  std::vector<Message> held_acks;
  std::vector<Message> held_prepares;
  bool hold_prepares = false;
  options.faults.drop_filter = [&](const Message& msg) {
    if (hold && msg.type == MsgType::kPrepareAck && msg.from == 1) {
      held_acks.push_back(msg);
      return true;
    }
    if (hold_prepares && msg.type == MsgType::kPrepare && msg.to == 1) {
      held_prepares.push_back(msg);
      return true;
    }
    return false;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(ProbePrepare(2, 1, 3, 10, /*attempt=*/1));

  const TxnSpec txn = MakeTxn(5, {Operation::Write(3, 50)});
  std::optional<TxnResult> first;
  cluster.managing().Submit(
      txn, 0, [&first](const TxnResult& reply) { first = reply; });
  while (!first && cluster.runtime().RunOne()) {
  }
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->outcome, TxnOutcome::kAbortedLockConflict);
  ASSERT_EQ(held_acks.size(), 1u);
  ASSERT_TRUE(held_acks[0].As<PrepareAckArgs>().accepted);
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 2, AbortArgs{1, /*attempt=*/1}));
  cluster.runtime().RunFor(Milliseconds(100));

  hold = false;
  hold_prepares = true;
  std::optional<TxnResult> retry;
  cluster.managing().Submit(
      txn, 0, [&retry](const TxnResult& reply) { retry = reply; });
  while (held_prepares.empty() && cluster.runtime().RunOne()) {
  }
  ASSERT_EQ(held_prepares.size(), 1u);
  hold_prepares = false;
  (void)cluster.transport().Send(held_acks[0]);
  cluster.runtime().RunFor(Milliseconds(100));  // well inside ack_timeout

  EXPECT_FALSE(retry.has_value());
  EXPECT_EQ(cluster.site(0).ActiveCoordinations(), 1u);
  EXPECT_EQ(cluster.site(0).counters().stray_msgs_ignored, 1u);
  EXPECT_EQ(cluster.site(2).counters().commits_handled, 0u);

  (void)cluster.transport().Send(held_prepares[0]);
  cluster.RunUntilIdle();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->outcome, TxnOutcome::kCommitted);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.site(s).db().Read(3)->value, 50) << "site " << s;
    EXPECT_TRUE(cluster.site(0).session_vector().IsUp(s)) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

}  // namespace
}  // namespace miniraid

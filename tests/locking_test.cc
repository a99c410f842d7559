// The concurrency-control extension end to end: with
// ConcurrencyOptions::mode == kTwoPhaseLocking, overlapping transactions are
// strict-2PL ordered — shared locks for the coordinator's local reads,
// exclusive locks at every site for writes, wait-die for deadlock freedom
// (the lock manager's only policy). These tests pin down the machinery:
// serial runs are unaffected, conflicting younger transactions die cleanly
// and retry, locks never leak across commits, aborts, timeouts, or
// crashes, and the feature composes with failure/recovery.

#include <gtest/gtest.h>

#include <optional>

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

ClusterOptions Options(uint32_t n_sites, uint32_t db_size = 12) {
  ClusterOptions options;
  options.n_sites = n_sites;
  options.db_size = db_size;
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  return options;
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
    EXPECT_TRUE(slot.has_value());
    replies.push_back(slot.value_or(TxnResult{}));
  }
  return replies;
}

TEST(LockingTest, SerialTransactionsUnaffected) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  for (TxnId t = 1; t <= 10; ++t) {
    const TxnResult reply = cluster.RunTxn(
        MakeTxn(t, {Operation::Write(static_cast<ItemId>(t % 12), Value(t)),
                    Operation::Read(0)}),
        static_cast<SiteId>(t % 3));
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted) << "txn " << t;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
  // Strict 2PL: nothing may remain locked at quiescence.
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.site(s).counters().txns_aborted_lock_conflict, 0u);
  }
}

TEST(LockingTest, MultiItemReadIsAtomicAgainstConcurrentWrite) {
  // A reader and a conflicting pair-writer run concurrently from different
  // coordinators; the reader must observe both items at the same version.
  // (This invariant also holds lock-free — reads execute atomically in one
  // event and sites apply writes atomically — the test pins down that the
  // locking machinery preserves it while adding its waits/aborts.)
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto cluster_owner = MakeSimCluster(Options(2, 4));
    SimCluster& cluster = *cluster_owner;
    (void)cluster.RunTxn(
        MakeTxn(1, {Operation::Write(0, 100), Operation::Write(1, 100)}), 0);

    const auto replies = RunConcurrently(
        cluster,
        {{MakeTxn(2, {Operation::Read(0), Operation::Read(1)}), 0},
         {MakeTxn(3, {Operation::Write(0, 300), Operation::Write(1, 300)}),
          1}});
    ASSERT_EQ(replies[0].outcome, TxnOutcome::kCommitted);
    // Atomicity: the two reads agree on the version.
    ASSERT_EQ(replies[0].reads.size(), 2u);
    EXPECT_EQ(replies[0].reads[0].version, replies[0].reads[1].version)
        << "torn read: x@" << replies[0].reads[0].version << " y@"
        << replies[0].reads[1].version;
    EXPECT_EQ(replies[0].reads[0].value, replies[0].reads[1].value);
    EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
  }
}

TEST(LockingTest, YoungerConflictingWriterDiesAndCanRetry) {
  auto cluster_owner = MakeSimCluster(Options(2, 4));
  SimCluster& cluster = *cluster_owner;
  // Start an older multi-item writer and a younger conflicting writer
  // concurrently at different coordinators.
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10), Operation::Write(1, 11),
                             Operation::Write(2, 12)}),
                 0},
                {MakeTxn(2, {Operation::Write(1, 21)}), 1}});
  EXPECT_EQ(replies[0].outcome, TxnOutcome::kCommitted);
  // The younger either slipped in cleanly before/after or died; it must
  // never deadlock or corrupt. If it died, a retry commits.
  if (replies[1].outcome != TxnOutcome::kCommitted) {
    EXPECT_EQ(replies[1].outcome, TxnOutcome::kAbortedLockConflict);
    const TxnResult retry =
        cluster.RunTxn(MakeTxn(3, {Operation::Write(1, 21)}), 1);
    EXPECT_EQ(retry.outcome, TxnOutcome::kCommitted);
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(LockingTest, LockConflictAbortRetriesUnderItsOwnId) {
  // A retryable() abort is re-submitted unchanged, under the id by which
  // wait-die ages it: the coordinator must run it again, not take it for a
  // second copy of the transaction it aborted.
  auto cluster_owner = MakeSimCluster(Options(2, 4));
  SimCluster& cluster = *cluster_owner;
  const TxnSpec younger = MakeTxn(2, {Operation::Write(1, 21)});
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10), Operation::Write(1, 11),
                             Operation::Write(2, 12)}),
                 0},
                {younger, 0}});
  EXPECT_EQ(replies[0].outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(replies[1].outcome, TxnOutcome::kAbortedLockConflict);
  ASSERT_TRUE(replies[1].retryable());
  EXPECT_EQ(cluster.RunTxn(younger, 0).outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(LockingTest, NoLocksLeakAcrossHeavyConcurrency) {
  auto cluster_owner = MakeSimCluster(Options(4, 10));
  SimCluster& cluster = *cluster_owner;
  UniformWorkloadOptions wopts;
  wopts.db_size = 10;
  wopts.max_txn_size = 4;
  wopts.seed = 3;
  UniformWorkload workload(wopts);

  uint64_t committed = 0, lock_aborts = 0;
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::pair<TxnSpec, SiteId>> batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back({workload.Next(), static_cast<SiteId>(i % 4)});
    }
    for (const TxnResult& reply : RunConcurrently(cluster, batch)) {
      committed += reply.outcome == TxnOutcome::kCommitted;
      lock_aborts += reply.outcome == TxnOutcome::kAbortedLockConflict;
    }
  }
  // Contention produces wait-die aborts — more than the old serial engine,
  // since every site now overlaps up to max_executors coordinations — but
  // the majority commits, replicas agree, and (checked implicitly by
  // continued progress) no lock is ever leaked.
  EXPECT_GT(committed, 60u);
  EXPECT_EQ(committed + lock_aborts, 120u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
  // Everything quiesced: a fresh serial transaction sails through.
  EXPECT_EQ(cluster.RunTxn(MakeTxn(10000, {Operation::Write(0, 1)}), 0)
                .outcome,
            TxnOutcome::kCommitted);
}

TEST(LockingTest, StaleLocksDoNotOutliveTimeoutsOrCrashes) {
  // Drop the commit to participant 1 so it holds txn 1's exclusive lock on
  // item 2 until its patience timer declares the coordinator dead and
  // releases it. (Both survivors then suspect each other — the protocol's
  // correct response to asymmetric silence.)
  ClusterOptions options = Options(3, 6);
  options.faults.drop_filter = [](const Message& msg) {
    return msg.from == 0 && msg.to == 1 && msg.type == MsgType::kCommit;
  };
  options.managing.client_timeout = Seconds(30);
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 22)}), 0).outcome,
            TxnOutcome::kCommitted);
  // Clear the mutual suspicion with a real crash + type-1 recovery.
  cluster.Fail(1);
  cluster.Recover(1);
  // If the timed-out participation had leaked txn 1's lock, this younger
  // writer's prepare at site 1 would die under wait-die. Committing — and
  // replicating to site 1 — proves the lock was released.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(2, {Operation::Write(2, 23)}), 2);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.site(1).db().Read(2)->value, 23);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

TEST(LockingTest, FailureAndRecoveryComposeWithLocking) {
  auto cluster_owner = MakeSimCluster(Options(3, 8));
  SimCluster& cluster = *cluster_owner;
  UniformWorkloadOptions wopts;
  wopts.db_size = 8;
  wopts.max_txn_size = 4;
  wopts.seed = 9;
  UniformWorkload workload(wopts);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
  }
  cluster.Fail(2);
  for (int i = 0; i < 10; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 2));
  }
  cluster.Recover(2);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

// ---------------------------------------------------------------------------
// Read-only transactions finish at phase one under 2PL (R*'s read-only
// vote): participants ack the Prepare and keep no state, and the
// coordinator commits at the last ack with no Commit/CommitAck round.
// ---------------------------------------------------------------------------

/// Runs `txn` to completion and returns how many messages it added.
uint64_t MessagesFor(SimCluster& cluster, const TxnSpec& txn,
                     SiteId coordinator) {
  const uint64_t before = cluster.messages_sent();
  EXPECT_EQ(cluster.RunTxn(txn, coordinator).outcome, TxnOutcome::kCommitted)
      << "txn " << txn.id;
  return cluster.messages_sent() - before;
}

TEST(LockingTest, ReadOnlyTxnFinishesAtPhaseOne) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // A write keeps both rounds: TxnRequest, 2 Prepare, 2 PrepareAck,
  // 2 Commit, 2 CommitAck, TxnReply.
  EXPECT_EQ(MessagesFor(cluster, MakeTxn(1, {Operation::Write(0, 10)}), 0),
            10u);

  // Step the simulation only until the reply arrives, so whatever the
  // read-only transaction left behind is still visible.
  const uint64_t before = cluster.messages_sent();
  std::optional<TxnResult> reply;
  cluster.managing().Submit(
      MakeTxn(2, {Operation::Read(0), Operation::Read(1)}), 0,
      [&reply](const TxnResult& r) { reply = r; });
  while (!reply.has_value() && cluster.runtime().RunOne()) {
  }
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(reply->reads.size(), 2u);
  EXPECT_EQ(reply->reads[0].value, 10);
  // TxnRequest, 2 Prepare, 2 PrepareAck, TxnReply.
  EXPECT_EQ(cluster.messages_sent() - before, 6u);
  for (SiteId s = 1; s < 3; ++s) {
    EXPECT_TRUE(cluster.site(s).IsIdle()) << "site " << s;
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 2u);
    EXPECT_EQ(cluster.site(s).counters().commits_handled, 1u);
  }
  // No patience timer (nor anything else) is left pending anywhere.
  EXPECT_TRUE(cluster.runtime().RunnableEvents().empty());
  EXPECT_EQ(cluster.site(0).counters().phase_commit_time.count(), 1u);
}

TEST(LockingTest, SerialReadOnlyTxnKeepsTheCommitRound) {
  // kSerial is Appendix A verbatim: Experiment 1's cost model was fitted
  // to a commit round on every transaction.
  ClusterOptions options = Options(3);
  options.site.concurrency.mode = ConcurrencyMode::kSerial;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  EXPECT_EQ(MessagesFor(cluster,
                        MakeTxn(1, {Operation::Read(0), Operation::Read(1)}),
                        0),
            10u);
  EXPECT_EQ(cluster.site(1).counters().commits_handled, 1u);
}

TEST(LockingTest, VetoedReadOnlyPrepareAbortsWithoutAbortMessages) {
  // Coordinator 0 never hears site 2's recovery announce, so its Prepares
  // carry a stale session for site 2 and both participants veto them.
  ClusterOptions options = Options(3);
  uint64_t aborts_sent = 0;
  options.faults.drop_filter = [&aborts_sent](const Message& msg) {
    if (msg.type == MsgType::kAbort) ++aborts_sent;
    return msg.type == MsgType::kRecoveryAnnounce && msg.to == 0;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);
  cluster.Recover(2);
  ASSERT_LT(cluster.site(0).session_vector().session(2),
            cluster.site(1).session_vector().session(2));

  const TxnSpec read = MakeTxn(1, {Operation::Read(0)});
  const TxnResult reply = cluster.RunTxn(read, 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedStaleView);
  EXPECT_TRUE(reply.retryable());
  EXPECT_GE(cluster.site(1).counters().prepare_session_vetoes, 1u);
  // The veto caught the coordinator up, and no participant kept anything
  // an Abort would have to discard.
  EXPECT_EQ(cluster.site(0).session_vector().session(2),
            cluster.site(1).session_vector().session(2));
  EXPECT_EQ(aborts_sent, 0u);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_TRUE(cluster.site(s).IsIdle()) << "site " << s;
  }
  // The retry, under the transaction's own id, commits against the
  // caught-up view.
  EXPECT_EQ(cluster.RunTxn(read, 0).outcome, TxnOutcome::kCommitted);
}

TEST(LockingTest, ReadOnlyPrepareStillDetectsAFailedParticipant) {
  // Phase one keeps Appendix A's missing-ack failure detection: a site
  // that failed before the Prepare aborts the read-only transaction and
  // is announced by control type 2.
  ClusterOptions options = Options(3);
  uint64_t aborts_sent = 0;
  options.faults.drop_filter = [&aborts_sent](const Message& msg) {
    if (msg.type == MsgType::kAbort) ++aborts_sent;
    return false;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);
  const TxnResult reply = cluster.RunTxn(MakeTxn(1, {Operation::Read(0)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
  EXPECT_EQ(cluster.site(0).counters().txns_aborted_participant, 1u);
  EXPECT_EQ(cluster.site(0).counters().control2_initiated, 1u);
  EXPECT_FALSE(cluster.site(0).session_vector().IsUp(2));
  EXPECT_FALSE(cluster.site(1).session_vector().IsUp(2));
  // Site 1 voted read-only and kept nothing to discard.
  EXPECT_EQ(aborts_sent, 0u);
  EXPECT_TRUE(cluster.site(1).IsIdle());
  EXPECT_EQ(cluster.RunTxn(MakeTxn(2, {Operation::Read(0)}), 0).outcome,
            TxnOutcome::kCommitted);
}

}  // namespace
}  // namespace miniraid

// Fine-grained tests of the Site protocol engine's semantics: fail-lock
// maintenance inside commit, the special clear-fail-locks transaction,
// recovery-time table adoption, session-pinned failure announcements, and
// the Appendix-A abort paths.

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/experiments.h"

namespace miniraid {
namespace {

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

/// Fails `site` and runs one throwaway transaction so the failure is
/// detected and announced (control type 2) before the interesting part.
void FailAndDetect(SimCluster& cluster, SiteId victim, SiteId detector,
                   TxnId txn_id) {
  cluster.Fail(victim);
  const TxnResult reply = cluster.RunTxn(
      MakeTxn(txn_id, {Operation::Write(0, 1)}), detector);
  ASSERT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
}

TEST(SiteProtocolTest, MaintenanceSetsBitsOnlyForDownHolders) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  FailAndDetect(cluster, 2, 0, 1);

  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(5, 55)}), 0);
  // Bit set for the down site 2 at both operational sites; clear for the
  // operational sites themselves.
  for (SiteId viewer : {0u, 1u}) {
    const FailLockTable& table = cluster.site(viewer).fail_locks();
    EXPECT_TRUE(table.IsSet(5, 2)) << "viewer " << viewer;
    EXPECT_FALSE(table.IsSet(5, 0));
    EXPECT_FALSE(table.IsSet(5, 1));
  }
}

TEST(SiteProtocolTest, MaintenanceCountersTrackTransitions) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  FailAndDetect(cluster, 1, 0, 1);
  const uint64_t before = cluster.site(0).counters().fail_locks_set;
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 1)}), 0);
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(3, 2)}), 0);  // re-set
  // Only the first write transitions the bit.
  EXPECT_EQ(cluster.site(0).counters().fail_locks_set, before + 1);
}

TEST(SiteProtocolTest, DisablingMaintenanceSkipsFailLocks) {
  ClusterOptions options = Options(2);
  options.site.maintain_fail_locks = false;  // the Experiment-1 toggle
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  FailAndDetect(cluster, 1, 0, 1);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 1)}), 0);
  EXPECT_EQ(cluster.site(0).fail_locks().TotalSet(), 0u);
}

TEST(SiteProtocolTest, SpecialTxnClearsLocksAtAllOperationalSites) {
  auto cluster_owner = MakeSimCluster(Options(4));
  SimCluster& cluster = *cluster_owner;
  FailAndDetect(cluster, 3, 0, 1);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(7, 70)}), 0);
  cluster.Recover(3);
  ASSERT_TRUE(cluster.site(3).fail_locks().IsSet(7, 3));

  // A read at the recovering coordinator triggers the copier + the special
  // clear-fail-locks transaction; all four tables converge.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(3, {Operation::Read(7)}), 3);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.copier_count, 1u);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_FALSE(cluster.site(s).fail_locks().IsSet(7, 3)) << "site " << s;
  }
  EXPECT_GE(cluster.site(3).counters().clear_lock_txns_sent, 1u);
  EXPECT_GE(cluster.site(0).counters().clear_lock_txns_received, 1u);
}

TEST(SiteProtocolTest, RecoveryAdoptsOperationalTablesDiscardingFrozenOnes) {
  // The stale-table resurrection hazard: site 1 crashes holding bits that
  // say site 0 is stale; site 0 refreshes while site 1 is down; when site 1
  // recovers it must adopt the operational view, not union in its frozen
  // (now wrong) bits — otherwise it would refuse site 0 as a copy source.
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  // Phase 1: site 0 down, write item 3 -> site 1 records 3 stale at 0.
  FailAndDetect(cluster, 0, 1, 1);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 30)}), 1);
  ASSERT_TRUE(cluster.site(1).fail_locks().IsSet(3, 0));
  cluster.Recover(0);
  // Phase 2: site 1 down; site 0 refreshes item 3 by writing it.
  FailAndDetect(cluster, 1, 0, 3);
  (void)cluster.RunTxn(MakeTxn(4, {Operation::Write(3, 33)}), 0);
  ASSERT_FALSE(cluster.site(0).fail_locks().IsSet(3, 0));
  ASSERT_TRUE(cluster.site(0).fail_locks().IsSet(3, 1));
  // Phase 3: site 1 recovers. Its frozen "3 stale at 0" must NOT survive.
  cluster.Recover(1);
  EXPECT_FALSE(cluster.site(1).fail_locks().IsSet(3, 0))
      << "frozen fail-lock resurrected after recovery";
  EXPECT_TRUE(cluster.site(1).fail_locks().IsSet(3, 1));
  // And the copier path works: site 1 reads item 3 via site 0.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(5, {Operation::Read(3)}), 1);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 33);
}

TEST(SiteProtocolTest, StaleFailureAnnouncementIgnored) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Site 2 fails and recovers: now in session 2.
  cluster.Fail(2);
  cluster.Recover(2);
  ASSERT_EQ(cluster.site(0).session_vector().session(2), 2u);
  // A stale type-2 announcement about session 1 must not mark it down.
  const std::vector<FailedSiteEntry> stale = {FailedSiteEntry{2, 1}};
  (void)cluster.transport().Send(
      MakeMessage(1, 0, FailureAnnounceArgs{stale}));
  cluster.RunUntilIdle();
  EXPECT_TRUE(cluster.site(0).session_vector().IsUp(2));
  // A current-session announcement does mark it down.
  const std::vector<FailedSiteEntry> current = {FailedSiteEntry{2, 2}};
  (void)cluster.transport().Send(
      MakeMessage(1, 0, FailureAnnounceArgs{current}));
  cluster.RunUntilIdle();
  EXPECT_FALSE(cluster.site(0).session_vector().IsUp(2));
}

TEST(SiteProtocolTest, SessionNumbersIncreaseAcrossRecoveries) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  for (SessionNumber expected = 2; expected <= 5; ++expected) {
    cluster.Fail(1);
    cluster.Recover(1);
    EXPECT_EQ(cluster.site(1).session_vector().session(1), expected);
    EXPECT_EQ(cluster.site(0).session_vector().session(1), expected);
  }
}

TEST(SiteProtocolTest, AbortDiscardsStagedWritesAtParticipants) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(2);
  // This transaction reaches participant 1 (which acks) but aborts because
  // participant 2 never answers. Site 1 must discard the staged write.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(4, 44)}), 0);
  ASSERT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
  EXPECT_EQ(cluster.site(1).db().Read(4)->value, 0);
  EXPECT_EQ(cluster.site(1).db().Read(4)->version, 0u);
  EXPECT_EQ(cluster.site(1).counters().aborts_handled, 1u);
  EXPECT_EQ(cluster.site(0).db().Read(4)->version, 0u);  // coordinator too
}

TEST(SiteProtocolTest, RecoveringSiteServesOnlyFreshCopies) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  FailAndDetect(cluster, 1, 0, 1);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 30)}), 0);
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(6, 60)}), 0);
  cluster.Recover(1);
  // Ask site 1 (in its recovery period) for a fresh and a stale item.
  class Probe : public MessageHandler {
   public:
    void OnMessage(const Message& msg) override {
      if (msg.type == MsgType::kCopyReply) {
        copies = msg.As<CopyReplyArgs>().copies;
        ++replies;
      }
    }
    std::vector<ItemCopy> copies;
    int replies = 0;
  };
  Probe probe;
  cluster.transport().Register(77, &probe);
  (void)cluster.transport().Send(
      MakeMessage(77, 1, CopyRequestArgs{1, {3, 5}}));
  cluster.RunUntilIdle();
  ASSERT_EQ(probe.replies, 1);
  // Item 3 is fail-locked at site 1 (stale) and must be withheld; item 5
  // was never written while down, so it is fresh and served.
  ASSERT_EQ(probe.copies.size(), 1u);
  EXPECT_EQ(probe.copies[0].item, 5u);
}

TEST(SiteProtocolTest, CopierGroupsBySourceWhenFreshCopiesAreSpread) {
  // Experiment-3 conclusion: "fail-locks can properly track the location of
  // the correct values for data items even when these values are spread out
  // over multiple sites."
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Make site 1 the only fresh holder of item 1: write while 2 was down...
  FailAndDetect(cluster, 2, 0, 1);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(1, 11)}), 0);
  cluster.Recover(2);
  // ...and site 2 the only fresh holder of item 2: write while 0 was down,
  // then also mark site 1 stale for item 2 by hand? Instead: fail 0, write
  // item 2 (fresh at 1 and 2), recover 0 -- now item 2 stale at 0 only.
  FailAndDetect(cluster, 0, 1, 3);
  (void)cluster.RunTxn(MakeTxn(4, {Operation::Write(2, 22)}), 1);
  cluster.Recover(0);
  // Site 0 is stale on item 2; site 2 is stale on item 1. A transaction at
  // site 0 reading both must fetch item 2 remotely; a transaction at site 2
  // reading both must fetch item 1 remotely. Values converge everywhere.
  TxnResult reply =
      cluster.RunTxn(MakeTxn(5, {Operation::Read(1), Operation::Read(2)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 11);
  EXPECT_EQ(reply.reads.at(1).value, 22);
  reply =
      cluster.RunTxn(MakeTxn(6, {Operation::Read(1), Operation::Read(2)}), 2);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 11);
  EXPECT_EQ(reply.reads.at(1).value, 22);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(SiteProtocolTest, CommitPhaseTimeoutStillCommits) {
  // Appendix A: "if commit ack not received from all participating sites
  // then run control type 2" — and then commit anyway. Force this by
  // dropping the commit message to site 1.
  ClusterOptions options = Options(2);
  SimCluster* cluster_ptr = nullptr;
  options.faults.drop_filter = [&cluster_ptr](const Message& msg) {
    return msg.type == MsgType::kCommit && msg.to == 1 &&
           cluster_ptr != nullptr;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster_ptr = &cluster;
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 22)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.site(0).db().Read(2)->value, 22);
  // The silent participant was announced failed (control type 2).
  EXPECT_FALSE(cluster.site(0).session_vector().IsUp(1));
  EXPECT_GE(cluster.site(0).counters().control2_initiated, 1u);
}

TEST(SiteProtocolTest, ParticipantDetectsDeadCoordinator) {
  // Drop the commit AND the abort so the participant's patience timer
  // expires: it must discard the staged write and run control type 2.
  ClusterOptions options = Options(3);
  options.faults.drop_filter = [](const Message& msg) {
    return msg.from == 0 && msg.to == 1 &&
           (msg.type == MsgType::kCommit || msg.type == MsgType::kAbort);
  };
  options.managing.client_timeout = Seconds(30);
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 22)}), 0);
  // The coordinator itself commits (it got both prepare acks; site 1's
  // missing commit-ack is a phase-two timeout).
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.site(1).counters().coordinator_failures_detected, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(2)->version, 0u);  // staged discarded
  // Site 2 committed normally.
  EXPECT_EQ(cluster.site(2).db().Read(2)->value, 22);
}

TEST(SiteProtocolTest, OverlappingRequestQueuesAndExecutesAfter) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  // Submit two transactions to the same coordinator back to back: the
  // second queues behind the first and executes once the slot frees up
  // (per-site execution stays serial).
  std::optional<TxnResult> first;
  std::optional<TxnResult> second;
  cluster.managing().Submit(MakeTxn(1, {Operation::Write(0, 1)}), 0,
                            [&first](const TxnResult& r) { first = r; });
  cluster.managing().Submit(MakeTxn(2, {Operation::Write(1, 1)}), 0,
                            [&second](const TxnResult& r) { second = r; });
  cluster.RunUntilIdle();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(second->outcome, TxnOutcome::kCommitted);
  // Both executed, in order, at every site.
  EXPECT_EQ(cluster.site(0).db().Read(0)->version, 1u);
  EXPECT_EQ(cluster.site(1).db().Read(1)->version, 2u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(SiteProtocolTest, ShutdownSilencesSite) {
  auto cluster_owner = MakeSimCluster(Options(2));
  SimCluster& cluster = *cluster_owner;
  cluster.managing().Shutdown(1);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.site(1).local_status(), SiteStatus::kTerminating);
  // A terminated site ignores transactions; coordinator 1 never answers.
  ClusterOptions unused = Options(2);
  (void)unused;
  std::optional<TxnResult> reply;
  cluster.managing().Submit(MakeTxn(1, {Operation::Read(0)}), 1,
                            [&reply](const TxnResult& r) { reply = r; });
  cluster.RunUntilIdle();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->outcome, TxnOutcome::kCoordinatorUnreachable);
}

}  // namespace
}  // namespace miniraid

// Fault-injection tests: network partitions (PartitionController), latency
// jitter (in-order delivery must survive), lose-state (cold restart)
// crashes, and the lossy-network suite — a per-message-type drop sweep
// repaired by the reliable channel / the protocol's own retries, duplicate
// determinism, and the end-to-end 10%-loss acceptance run.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "core/cluster.h"
#include "net/faults.h"
#include "net/partition.h"
#include "txn/driver.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

TEST(PartitionControllerTest, CrossesOnlyBetweenGroups) {
  PartitionController partition;
  EXPECT_FALSE(partition.Partitioned());
  partition.Split({{0, 1}, {2, 3}});
  EXPECT_TRUE(partition.Crosses(0, 2));
  EXPECT_TRUE(partition.Crosses(3, 1));
  EXPECT_FALSE(partition.Crosses(0, 1));
  EXPECT_FALSE(partition.Crosses(2, 3));
  // Unassigned endpoints (the managing site) reach everyone.
  EXPECT_FALSE(partition.Crosses(0, 4));
  EXPECT_FALSE(partition.Crosses(4, 2));
  partition.Heal();
  EXPECT_FALSE(partition.Crosses(0, 2));
}

TEST(PartitionTest, MinoritySideDetectsMajorityAsFailed) {
  PartitionController partition;
  ClusterOptions options;
  options.n_sites = 3;
  options.db_size = 8;
  options.faults.drop_filter = partition.Filter();
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  partition.Split({{0, 1}, {2}});
  // Site 2's next coordinated write times out on both peers and announces
  // them failed — to nobody reachable, but its own vector updates.
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 2);
  EXPECT_FALSE(cluster.site(2).session_vector().IsUp(0));
  EXPECT_FALSE(cluster.site(2).session_vector().IsUp(1));
  // The majority side likewise writes 2 off after one timeout.
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(1, 2)}), 0);
  EXPECT_FALSE(cluster.site(0).session_vector().IsUp(2));
  EXPECT_TRUE(cluster.site(0).session_vector().IsUp(1));
}

TEST(PartitionTest, RowaaDivergesUnderPartitionTheDocumentedLimitation) {
  // ROWAA assumes site failures, not partitions: during a split both sides
  // keep accepting writes to "all available copies" and the replicas
  // diverge — exactly why the paper's protocol family needs a partition-
  // free network (or quorum-style protocols; see the baselines).
  PartitionController partition;
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 4;
  options.faults.drop_filter = partition.Filter();
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  partition.Split({{0}, {1}});
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0);  // detect
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(0, 100)}), 0);
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(0, 1)}), 1);  // detect
  (void)cluster.RunTxn(MakeTxn(4, {Operation::Write(0, 200)}), 1);
  partition.Heal();

  // Both sides committed conflicting values for item 0; each side's
  // fail-lock table blames the other, so the oracle that exempts locked
  // copies still "passes" — but the raw values demonstrably diverged.
  EXPECT_EQ(cluster.site(0).db().Read(0)->value, 100);
  EXPECT_EQ(cluster.site(1).db().Read(0)->value, 200);
  EXPECT_TRUE(cluster.site(0).fail_locks().IsSet(0, 1));
  EXPECT_TRUE(cluster.site(1).fail_locks().IsSet(0, 0));
}

TEST(PartitionTest, HealedPartitionRecoversViaControlType1) {
  PartitionController partition;
  ClusterOptions options;
  options.n_sites = 3;
  options.db_size = 8;
  options.faults.drop_filter = partition.Filter();
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  partition.Split({{0, 1}, {2}});
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(3, 1)}), 0);  // detect
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(3, 33)}), 0);
  partition.Heal();
  // Treat the isolated site like a recovering one (it made no conflicting
  // commits — it was never asked to coordinate): crash + type-1 recovery
  // brings it back cleanly.
  cluster.Fail(2);
  cluster.Recover(2);
  EXPECT_TRUE(cluster.site(2).fail_locks().IsSet(3, 2));
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(3, {Operation::Read(3)}), 2);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 33);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(JitterTest, FifoPreservedUnderJitter) {
  SimRuntime sim;
  SimTransportOptions options;
  options.message_latency = Milliseconds(5);
  options.latency_jitter = Milliseconds(20);
  options.jitter_seed = 99;
  SimTransport transport(&sim, options);

  class Recorder : public MessageHandler {
   public:
    void OnMessage(const Message& msg) override {
      order.push_back(msg.As<CommitArgs>().txn);
    }
    std::vector<TxnId> order;
  };
  Recorder recorder;
  transport.Register(1, &recorder);
  for (TxnId t = 1; t <= 50; ++t) {
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.order.size(), 50u);
  for (TxnId t = 1; t <= 50; ++t) {
    EXPECT_EQ(recorder.order[t - 1], t) << "reordered under jitter";
  }
}

TEST(JitterTest, ProtocolCorrectUnderJitteredLatency) {
  ClusterOptions options;
  options.n_sites = 3;
  options.db_size = 10;
  options.transport.latency_jitter = Milliseconds(30);
  options.transport.jitter_seed = 7;
  options.check_invariants = true;  // full invariant suite at every step
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  UniformWorkloadOptions wopts;
  wopts.db_size = 10;
  wopts.max_txn_size = 5;
  wopts.seed = 7;
  UniformWorkload workload(wopts);
  for (int i = 0; i < 40; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
  }
  cluster.Fail(1);
  for (int i = 0; i < 10; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(2 * (i % 2)));
  }
  cluster.Recover(1);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

TEST(LoseStateTest, ColdRestartRefreshesEverythingBeforeServing) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 6;
  options.site.lose_state_on_crash = true;
  options.check_invariants = true;  // full invariant suite at every step
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  (void)cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 22)}), 0);
  cluster.Fail(1);
  // Site 1's memory is gone, including the value of item 2 committed
  // before the crash — which no fail-lock at site 0 records.
  EXPECT_EQ(cluster.site(1).db().Read(2)->version, 0u);
  (void)cluster.RunTxn(MakeTxn(2, {Operation::Write(4, 44)}), 0);  // detect
  (void)cluster.RunTxn(MakeTxn(3, {Operation::Write(4, 45)}), 0);
  cluster.Recover(1);
  // Conservative fail-locking covers every copy, not just item 4.
  EXPECT_EQ(cluster.site(1).OwnFailLockCount(), 6u);
  // Reads at the restarted site go through copier transactions and return
  // the correct pre-crash value.
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(4, {Operation::Read(2)}), 1);
  EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(reply.reads.at(0).value, 22);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(LoseStateTest, SessionCounterSurvivesColdRestart) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 4;
  options.site.lose_state_on_crash = true;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(1);
  cluster.Recover(1);
  cluster.Fail(1);
  cluster.Recover(1);
  // Two restarts: session 3. A repeated session number would break the
  // type-2 stale-announcement guard.
  EXPECT_EQ(cluster.site(1).session_vector().session(1), 3u);
  EXPECT_EQ(cluster.site(0).session_vector().session(1), 3u);
}

TEST(LoseStateTest, BatchModeDrainsColdRestartQuickly) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 12;
  options.site.lose_state_on_crash = true;
  options.site.batch_copier_threshold = 1.0;  // proactive refresh
  options.site.batch_copier_chunk = 4;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  for (TxnId t = 1; t <= 6; ++t) {
    (void)cluster.RunTxn(
        MakeTxn(t, {Operation::Write(static_cast<ItemId>(t), Value(t))}), 0);
  }
  cluster.Fail(1);
  (void)cluster.RunTxn(MakeTxn(7, {Operation::Write(0, 7)}), 0);  // detect
  cluster.Recover(1);
  // Recovery ran to quiescence with batch copiers: no stale copies remain,
  // and the pre-crash values are all back.
  EXPECT_EQ(cluster.site(1).OwnFailLockCount(), 0u);
  for (TxnId t = 1; t <= 6; ++t) {
    EXPECT_EQ(cluster.site(1).db().Read(static_cast<ItemId>(t))->value,
              Value(t));
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

// ---------------------------------------------------------------------------
// Lossy-network suite: losing any single protocol message must never wedge
// the protocol or diverge the replicas.
// ---------------------------------------------------------------------------

/// Runs the full protocol surface — commit, failure detection, ROWAA with
/// fail-lock maintenance, type-1 recovery, an on-demand copier and the
/// clear-fail-locks transaction — while the FIRST message of `victim_type`
/// is silently dropped, and asserts everything still completes and agrees.
void RunLossScenario(ClusterOptions options, MsgType victim_type) {
  auto dropped = std::make_shared<bool>(false);
  options.n_sites = 3;
  options.db_size = 8;
  options.faults.drop_filter = [dropped, victim_type](const Message& msg) {
    if (*dropped || msg.type != victim_type) return false;
    *dropped = true;
    return true;
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  EXPECT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 10)}), 0).outcome,
            TxnOutcome::kCommitted);
  cluster.Fail(2);
  // Detection: the victim stays silent past the ack timeout, so the
  // coordinator declares it failed and aborts.
  EXPECT_EQ(cluster.RunTxn(MakeTxn(2, {Operation::Write(1, 20)}), 0).outcome,
            TxnOutcome::kAbortedParticipantFailed);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(3, {Operation::Write(1, 21)}), 0).outcome,
            TxnOutcome::kCommitted);
  cluster.Recover(2);
  // A read at the recovered site forces a copier (its copy of item 1 is
  // fail-locked) and afterwards the clear-fail-locks transaction.
  const TxnResult read =
      cluster.RunTxn(MakeTxn(4, {Operation::Read(1)}), 2);
  EXPECT_EQ(read.outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(read.reads.size(), 1u);
  EXPECT_EQ(read.reads[0].value, 21);

  EXPECT_TRUE(*dropped) << "scenario never sent a "
                        << MsgTypeName(victim_type);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

class LossSweepTest : public ::testing::TestWithParam<MsgType> {};

TEST_P(LossSweepTest, ReliableChannelRepairsTheDrop) {
  ClusterOptions options;
  options.reliable.enabled = true;  // channel retransmissions do the repair
  RunLossScenario(options, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EveryProtocolMessage, LossSweepTest,
    ::testing::Values(MsgType::kPrepare, MsgType::kPrepareAck,
                      MsgType::kCommit, MsgType::kCommitAck,
                      MsgType::kCopyRequest, MsgType::kCopyReply,
                      MsgType::kRecoveryAnnounce, MsgType::kRecoveryInfo,
                      MsgType::kClearFailLocks),
    [](const ::testing::TestParamInfo<MsgType>& info) {
      return std::string(MsgTypeName(info.param));
    });

TEST(DuplicateDeterminismTest, SameSeedArrivalsUnchangedByDuplication) {
  // Copies are drawn per delivery, from a stream separate from the latency
  // jitter's, and handed up behind their original: turning duplication on
  // must not move a single original arrival in a same-seed run (a
  // guarantee A/B experiments rely on).
  auto run = [](double duplicate_probability) {
    SimRuntime sim;
    SimTransportOptions topts;
    topts.latency_jitter = Milliseconds(4);
    topts.jitter_seed = 99;
    SimTransport transport(&sim, topts);
    TransportFaults faults;
    faults.seed = 5;
    faults.duplicate_probability = duplicate_probability;
    FaultInjector injector(faults);

    class TimedRecorder : public MessageHandler {
     public:
      explicit TimedRecorder(SimRuntime* sim) : sim_(sim) {}
      void OnMessage(const Message& msg) override {
        const TxnId txn = msg.As<CommitArgs>().txn;
        if (first_seen.emplace(txn, sim_->now()).second) {
          arrivals.push_back({txn, sim_->now()});
        }
      }
      std::map<TxnId, TimePoint> first_seen;
      std::vector<std::pair<TxnId, TimePoint>> arrivals;

     private:
      SimRuntime* const sim_;
    };
    TimedRecorder recorder(&sim);
    FaultLayer sender(&injector, &transport, /*upper=*/nullptr);
    FaultLayer receiver(&injector, &transport, &recorder);
    transport.Register(1, &receiver);
    for (TxnId t = 1; t <= 40; ++t) {
      (void)sender.Send(MakeMessage(0, 1, CommitArgs{t}));
    }
    sim.RunUntilIdle();
    return recorder.arrivals;
  };
  const auto without = run(0.0);
  const auto with = run(1.0);
  ASSERT_EQ(without.size(), 40u);
  EXPECT_EQ(without, with) << "duplication perturbed original arrivals";
}

TEST(LossyNetworkAcceptanceTest, PipelinedLoadWithFailureAtTenPercentLoss) {
  // The acceptance bar: concurrency 8, a failure injected and recovered
  // mid-workload, 10% message loss — and not one client timeout, because
  // the reliable channel absorbs every drop before the managing site's
  // patience runs out. ack_timeout is sized to cover the channel's repair
  // (RTO 100 ms, doubling per attempt); nothing above the channel
  // re-sends.
  ClusterOptions options;
  options.n_sites = 4;
  options.db_size = 32;
  options.max_inflight = 8;
  options.faults.drop_probability = 0.10;
  options.faults.seed = 7;
  options.reliable.enabled = true;
  options.site.ack_timeout = Milliseconds(2375);
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  UniformWorkloadOptions wopts;
  wopts.db_size = 32;
  wopts.max_txn_size = 6;
  wopts.seed = 11;
  UniformWorkload workload(wopts);

  DriverOptions dopts;
  dopts.concurrency = 8;
  dopts.measure_txns = 120;
  constexpr SiteId kVictim = 3;
  DriverOptions degraded = dopts;
  degraded.coordinator_for = [](uint64_t index) {
    return static_cast<SiteId>(index % 3);  // keep load off the down site
  };

  Driver healthy(&cluster, &workload, dopts);
  const DriverReport healthy_report = healthy.Run();
  cluster.Fail(kVictim);
  Driver failed(&cluster, &workload, degraded);
  const DriverReport failed_report = failed.Run();
  cluster.Recover(kVictim);
  Driver recovering(&cluster, &workload, dopts);
  const DriverReport recovery_report = recovering.Run();

  EXPECT_EQ(healthy_report.unreachable, 0u);
  EXPECT_EQ(failed_report.unreachable, 0u);
  EXPECT_EQ(recovery_report.unreachable, 0u);
  EXPECT_GT(healthy_report.committed, 0u);
  EXPECT_GT(failed_report.committed, 0u);
  EXPECT_GT(recovery_report.committed, 0u);

  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.unreachable, 0u) << "a client timed out under loss";
  EXPECT_EQ(stats.late_outcomes, 0u);
  EXPECT_GT(stats.messages_dropped, 0u) << "loss injection never engaged";
  EXPECT_GT(stats.channel.retransmits, 0u);
  EXPECT_GT(stats.channel.dup_suppressed, 0u);
  // The channel deduplicates and the protocol sends nothing twice, so no
  // copy of a message reaches a guard of the engine.
  uint64_t stray = 0;
  for (SiteId s = 0; s < options.n_sites; ++s) {
    stray += cluster.site(s).counters().stray_msgs_ignored;
  }
  EXPECT_EQ(stray, 0u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

}  // namespace
}  // namespace miniraid

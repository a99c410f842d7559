// Stress of the pipelined submission path on the real (threaded) runtime:
// many transactions in flight at once, failure and recovery injected while
// the load is running, and submissions racing from several client threads.
// Run under tsan (the `tsan` CMake preset) this is the data-race gate for
// the async Cluster API.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "txn/driver.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

std::unique_ptr<Cluster> MakeInProc(uint32_t n_sites, uint32_t db_size,
                                    uint32_t window,
                                    ConcurrencyOptions concurrency = {}) {
  ClusterOptions options;
  options.backend = ClusterBackend::kInProc;
  options.n_sites = n_sites;
  options.db_size = db_size;
  options.max_inflight = window;
  options.site.ack_timeout = Milliseconds(200);
  options.site.concurrency = concurrency;
  options.managing.client_timeout = Seconds(10);
  auto cluster = MakeCluster(options);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return std::move(*cluster);
}

TEST(RealClusterStressTest, PipelinedLoadSurvivesFailureAndRecovery) {
  auto cluster = MakeInProc(4, 24, /*window=*/8);
  UniformWorkloadOptions wopts;
  wopts.db_size = 24;
  wopts.max_txn_size = 5;
  wopts.seed = 5;
  UniformWorkload workload(wopts);

  DriverOptions dopts;
  dopts.concurrency = 8;
  dopts.measure_txns = 400;
  // Coordinators stay on sites 0-2; site 3 (the victim) participates in
  // every write, so its crash exercises detection, ROWAA and fail-lock
  // maintenance without stalling submissions on a dead coordinator.
  dopts.coordinator_for = [](uint64_t index) {
    return static_cast<SiteId>(index % 3);
  };

  std::thread chaos([&cluster] {
    // miniraid-lint: allow(blocking-call) -- test thread paces the injection
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster->Fail(3);
    // miniraid-lint: allow(blocking-call)
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cluster->Recover(3);
  });
  const DriverReport report =
      Driver(cluster.get(), &workload, dopts).Run();
  chaos.join();

  EXPECT_TRUE(report.completed) << report.Summary();
  EXPECT_EQ(report.submitted, 400u);
  EXPECT_EQ(report.committed + report.aborted + report.unreachable, 400u);
  // The bulk of the load must get through; detection aborts only a few.
  EXPECT_GE(report.committed, 300u);

  // Quiesce, then the replicas must agree and all counters reconcile.
  ASSERT_TRUE(cluster->WaitUntil(
      3, [](const Site& site) { return site.is_up(); }));
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.submitted, 400u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_LE(stats.max_inflight_seen, 8u);
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok())
      << cluster->CheckReplicaAgreement().ToString();
}

TEST(RealClusterStressTest, LockedLoadSurvivesFailureAndRecovery) {
  // The same chaos run with the 2PL layer on and a wide executor pool:
  // coordinations pile up inside each site while the victim fails and
  // recovers, so lock hand-off, wait-die aborts, and commit-time
  // fail-lock maintenance all race the control transactions. Under tsan
  // this is the data-race gate for the concurrent execution path.
  ConcurrencyOptions concurrency;
  concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  concurrency.max_executors = 8;
  // A wider database than the serial run above: wait-die losers are not
  // resubmitted by the driver, so the item space keeps the conflict (and
  // hence forced-abort) rate low enough that the bulk still commits.
  auto cluster = MakeInProc(4, 96, /*window=*/8, concurrency);
  UniformWorkloadOptions wopts;
  wopts.db_size = 96;
  wopts.max_txn_size = 5;
  wopts.seed = 7;
  UniformWorkload workload(wopts);

  DriverOptions dopts;
  dopts.concurrency = 8;
  dopts.measure_txns = 400;
  dopts.coordinator_for = [](uint64_t index) {
    return static_cast<SiteId>(index % 3);
  };

  std::thread chaos([&cluster] {
    // miniraid-lint: allow(blocking-call) -- test thread paces the injection
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster->Fail(3);
    // miniraid-lint: allow(blocking-call)
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cluster->Recover(3);
  });
  const DriverReport report =
      Driver(cluster.get(), &workload, dopts).Run();
  chaos.join();

  EXPECT_TRUE(report.completed) << report.Summary();
  EXPECT_EQ(report.submitted, 400u);
  EXPECT_EQ(report.committed + report.aborted + report.unreachable, 400u);
  // The abort count here is timing-dependent (wait-die losers plus the
  // detection window), so the floor has real headroom; the load-bearing
  // assertions are completion, reconciliation, and replica agreement.
  EXPECT_GE(report.committed, 250u);

  ASSERT_TRUE(cluster->WaitUntil(
      3, [](const Site& site) { return site.is_up(); }));
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok())
      << cluster->CheckReplicaAgreement().ToString();
}

TEST(RealClusterStressTest, HandlesRaceFromManyClientThreads) {
  auto cluster = MakeInProc(3, 16, /*window=*/12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<uint64_t> committed{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&cluster, &committed, t] {
      UniformWorkloadOptions wopts;
      wopts.db_size = 16;
      wopts.max_txn_size = 4;
      wopts.seed = 100 + uint64_t(t);
      UniformWorkload workload(wopts);
      std::vector<TxnHandle> handles;
      for (int i = 0; i < kPerThread; ++i) {
        TxnSpec txn = workload.Next();
        // Each workload instance numbers from 1; keep ids globally unique
        // across the client threads.
        txn.id += TxnId(t + 1) * 1000000;
        handles.push_back(
            cluster->SubmitTxn(txn, static_cast<SiteId>((t + i) % 3)));
      }
      for (TxnHandle& handle : handles) {
        if (handle.Get().outcome == TxnOutcome::kCommitted) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(committed.load(), uint64_t(kThreads) * kPerThread);
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.submitted, uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_LE(stats.max_inflight_seen, 12u);
  EXPECT_TRUE(cluster->CheckReplicaAgreement().ok());
}

}  // namespace
}  // namespace miniraid

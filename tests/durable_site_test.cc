// Integration of the protocol with the durability substrate: a site
// mirrors every applied mutation into a DurableDatabase via the on_apply
// hook; after a lose-state crash (process death), the driver restores the
// durable image with Site::RestoreImage before recovery — and the site
// rejoins exactly as if its memory had survived, with fail-locks covering
// only the updates committed while it was down.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/cluster.h"
#include "storage/durable_database.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

namespace fs = std::filesystem;

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

class DurableSiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("miniraid_durable_site_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }
  fs::path dir_;
};

std::vector<ItemCopy> ImageOf(const DurableDatabase& store) {
  std::vector<ItemCopy> image;
  for (ItemId item = 0; item < store.n_items(); ++item) {
    if (!store.Holds(item)) continue;
    const ItemState state = *store.Read(item);
    image.push_back(ItemCopy{item, state.value, state.version});
  }
  return image;
}

TEST_F(DurableSiteTest, MirrorRestoreRecoverCycle) {
  constexpr uint32_t kItems = 10;
  DurableDatabase::Options store_options;
  store_options.dir = Dir();
  auto store = DurableDatabase::Open(store_options, kItems);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = kItems;
  options.site.lose_state_on_crash = true;
  // The hook fires at every site. A real driver gives each site its own
  // store; mirroring both into one is fine here because the replicas
  // converge — stale-version rejections from cross-site ordering are
  // ignored.
  options.site.on_apply = [&store](ItemId item, Value value,
                                   Version version) {
    (void)(*store)->InstallCopy(item, ItemState{value, version});
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;

  // Commit some state, then crash site 1 (memory wiped).
  for (TxnId t = 1; t <= 6; ++t) {
    ASSERT_EQ(cluster
                  .RunTxn(MakeTxn(t, {Operation::Write(
                              static_cast<ItemId>(t), Value(100 + t))}),
                          0)
                  .outcome,
              TxnOutcome::kCommitted);
  }
  cluster.Fail(1);
  EXPECT_EQ(cluster.site(1).db().Read(3)->version, 0u);  // wiped

  // More commits while site 1 is down (these are what fail-locks track).
  (void)cluster.RunTxn(MakeTxn(7, {Operation::Write(1, 201)}), 0);  // detect
  ASSERT_EQ(cluster.RunTxn(MakeTxn(8, {Operation::Write(2, 202)}), 0).outcome,
            TxnOutcome::kCommitted);

  // "Process restart": reload the durable store and restore the image.
  auto reopened = DurableDatabase::Open(store_options, kItems);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(cluster.site(1).RestoreImage(ImageOf(**reopened)).ok());
  cluster.Recover(1);

  // The decisive check: with the image restored, the fail-lock set equals
  // what the operational sites recorded for the down period — NOT the
  // whole database, as a bare cold restart would require.
  EXPECT_LE(cluster.site(1).OwnFailLockCount(), 1u);
  EXPECT_EQ(cluster.site(1).db().Read(3)->value, 103);  // from the image
  const TxnResult read =
      cluster.RunTxn(MakeTxn(9, {Operation::Read(2)}), 1);
  EXPECT_EQ(read.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(read.reads.at(0).value, 202);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

TEST_F(DurableSiteTest, RestoreImageRequiresDownSite) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 4;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  const Status status =
      cluster.site(0).RestoreImage({ItemCopy{0, 1, 1}});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableSiteTest, RestoreImageValidatesItems) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 4;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  cluster.Fail(1);
  EXPECT_EQ(cluster.site(1).RestoreImage({ItemCopy{99, 1, 1}}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DurableSiteTest, OnApplyHookSeesEveryCommittedWrite) {
  ClusterOptions options;
  options.n_sites = 2;
  options.db_size = 8;
  std::vector<std::tuple<ItemId, Value, Version>> applied;
  options.site.on_apply = [&applied](ItemId item, Value value,
                                     Version version) {
    applied.emplace_back(item, value, version);
  };
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster
                .RunTxn(MakeTxn(1, {Operation::Write(3, 33),
                                    Operation::Write(5, 55)}),
                        0)
                .outcome,
            TxnOutcome::kCommitted);
  // Both sites applied both writes: 4 hook invocations.
  EXPECT_EQ(applied.size(), 4u);
  for (const auto& [item, value, version] : applied) {
    EXPECT_TRUE((item == 3 && value == 33) || (item == 5 && value == 55));
    EXPECT_EQ(version, 1u);
  }
}

TEST(DuplicateDeliveryTest, ProtocolToleratesRetransmittingTransport) {
  ClusterOptions options;
  options.n_sites = 3;
  options.db_size = 12;
  // Duplication needs the channel, the only layer that absorbs copies.
  options.reliable.enabled = true;
  options.faults.duplicate_probability = 0.3;
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  UniformWorkloadOptions wopts;
  wopts.db_size = 12;
  wopts.max_txn_size = 5;
  wopts.seed = 4;
  UniformWorkload workload(wopts);

  uint64_t committed = 0;
  for (int i = 0; i < 60; ++i) {
    const TxnResult reply =
        cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
    committed += reply.outcome == TxnOutcome::kCommitted;
  }
  cluster.Fail(2);
  for (int i = 0; i < 10; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 2));
  }
  cluster.Recover(2);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % 3));
  }
  EXPECT_GE(committed, 58u);  // duplicates never break commits
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

}  // namespace
}  // namespace miniraid

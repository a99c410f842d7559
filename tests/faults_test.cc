// The fault layer (net/faults.h) over each backend's transport, and the one
// fault setting (ClusterOptions::faults) reaching every backend. Run it
// under the tsan preset too: on the real backends the shared injector is
// drawn from every loop thread.

#include "net/faults.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "net/inproc_transport.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"

namespace miniraid {
namespace {

/// Records the txn of every Commit it is handed; readable from the test
/// thread while a loop delivers.
class Collector : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    txns_.push_back(msg.As<CommitArgs>().txn);
  }

  std::vector<TxnId> Txns() {
    std::lock_guard<std::mutex> lock(mu_);
    return txns_;
  }

 private:
  std::mutex mu_;
  std::vector<TxnId> txns_;
};

std::string BackendParamName(
    const ::testing::TestParamInfo<ClusterBackend>& info) {
  return std::string(ClusterBackendName(info.param));
}

/// Endpoints 0 and 1 on one backend, each behind its own FaultLayer over
/// the backend's transport, all layers drawing from one injector: the
/// stack a cluster wires. Endpoint 1 collects what it is handed.
class LayeredPair {
 public:
  LayeredPair(ClusterBackend backend, const TransportFaults& faults)
      : backend_(backend), injector_(faults) {
    Transport* inner[2] = {};
    if (backend == ClusterBackend::kSim) {
      sim_transport_ =
          std::make_unique<SimTransport>(&sim_, SimTransportOptions{});
      inner[0] = inner[1] = sim_transport_.get();
    } else if (backend == ClusterBackend::kInProc) {
      inproc_ = std::make_unique<InProcTransport>();
      inner[0] = inner[1] = inproc_.get();
    } else {
      const uint16_t base = PickEphemeralBasePort();
      const std::map<SiteId, uint16_t> ports = {
          {0, base}, {1, static_cast<uint16_t>(base + 1)}};
      for (SiteId id : {0u, 1u}) {
        tcp_.push_back(std::make_unique<TcpTransport>(
            id, ports, &loops_[id], /*handler=*/nullptr));
        inner[id] = tcp_.back().get();
      }
    }
    MessageHandler* upper[2] = {&idle_, &collector_};
    for (SiteId id : {0u, 1u}) {
      layers_[id] =
          std::make_unique<FaultLayer>(&injector_, inner[id], upper[id]);
      if (sim_transport_) sim_transport_->Register(id, layers_[id].get());
      if (inproc_) inproc_->Register(id, &loops_[id], layers_[id].get());
      if (!tcp_.empty()) tcp_[id]->set_handler(layers_[id].get());
    }
    for (auto& transport : tcp_) EXPECT_TRUE(transport->Start().ok());
  }

  ~LayeredPair() {
    for (auto& transport : tcp_) transport->Stop();
    for (EventLoop& loop : loops_) loop.Stop();
  }

  /// Sends Commit 1..count from 0 to 1 through 0's layer, in 0's own
  /// execution context (its loop; under sim the driving thread).
  void SendAll(TxnId count) {
    auto send = [this, count] {
      for (TxnId t = 1; t <= count; ++t) {
        ASSERT_TRUE(layers_[0]->Send(MakeMessage(0, 1, CommitArgs{t})).ok());
      }
    };
    if (backend_ == ClusterBackend::kSim) {
      send();
    } else {
      loops_[0].PostAndWait(send);
    }
  }

  /// What endpoint 1 was handed once `n` messages arrived, and a moment
  /// longer for any extra (under sim, once the simulation is idle).
  std::vector<TxnId> Delivered(size_t n) {
    if (backend_ == ClusterBackend::kSim) {
      sim_.RunUntilIdle();
      return collector_.Txns();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (collector_.Txns().size() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return collector_.Txns();
  }

  uint64_t messages_sent() const {
    if (sim_transport_) return sim_transport_->messages_sent();
    if (inproc_) return inproc_->messages_sent();
    return tcp_[0]->messages_sent() + tcp_[1]->messages_sent();
  }

  const FaultInjector& injector() const { return injector_; }

 private:
  const ClusterBackend backend_;
  Collector collector_;
  Collector idle_;
  FaultInjector injector_;
  std::unique_ptr<FaultLayer> layers_[2];
  SimRuntime sim_;
  std::unique_ptr<SimTransport> sim_transport_;
  EventLoop loops_[2];
  std::unique_ptr<InProcTransport> inproc_;
  std::vector<std::unique_ptr<TcpTransport>> tcp_;
};

class FaultLayerTest : public ::testing::TestWithParam<ClusterBackend> {};

TEST_P(FaultLayerTest, DropsOnlyFilteredMessagesAndCountsThem) {
  TransportFaults faults;
  faults.drop_filter = [](const Message& msg) {
    return msg.As<CommitArgs>().txn % 3 == 0;
  };
  LayeredPair pair(GetParam(), faults);
  pair.SendAll(30);
  std::vector<TxnId> want;
  for (TxnId t = 1; t <= 30; ++t) {
    if (t % 3 != 0) want.push_back(t);
  }
  EXPECT_EQ(pair.Delivered(want.size()), want);
  EXPECT_EQ(pair.injector().dropped(), 10u);
  // A dropped message never reaches the transport, so it is not sent.
  EXPECT_EQ(pair.messages_sent(), want.size());
}

TEST_P(FaultLayerTest, CopyFollowsItsOriginalAndCountsOnce) {
  TransportFaults faults;
  faults.duplicate_probability = 1.0;
  LayeredPair pair(GetParam(), faults);
  pair.SendAll(50);
  // Each copy is handed up right behind its original, in per-pair order.
  std::vector<TxnId> want;
  for (TxnId t = 1; t <= 50; ++t) want.insert(want.end(), {t, t});
  EXPECT_EQ(pair.Delivered(want.size()), want);
  EXPECT_EQ(pair.messages_sent(), 50u);
  EXPECT_EQ(pair.injector().dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, FaultLayerTest,
                         ::testing::Values(ClusterBackend::kSim,
                                           ClusterBackend::kInProc,
                                           ClusterBackend::kTcp),
                         BackendParamName);

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

class ClusterFaultsTest : public ::testing::TestWithParam<ClusterBackend> {
 protected:
  ClusterOptions Options() const {
    ClusterOptions options;
    options.backend = GetParam();
    options.n_sites = 3;
    options.db_size = 8;
    // Short, so a participant the faults silence is given up on quickly.
    options.site.ack_timeout = Milliseconds(50);
    return options;
  }
};

TEST_P(ClusterFaultsTest, DroppedPrepareAbortsTheFirstWrite) {
  ClusterOptions options = Options();
  options.faults.drop_filter = [](const Message& msg) {
    return msg.type == MsgType::kPrepare && msg.to == 1;
  };
  auto made = MakeCluster(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Cluster& cluster = **made;
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 20)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kAbortedParticipantFailed);
  EXPECT_GT(cluster.Stats().messages_dropped, 0u);
}

TEST_P(ClusterFaultsTest, ChannelSuppressesEveryInjectedCopy) {
  ClusterOptions options = Options();
  options.site.ack_timeout = Milliseconds(250);
  options.reliable.enabled = true;
  options.faults.duplicate_probability = 1.0;
  auto made = MakeCluster(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Cluster& cluster = **made;
  for (TxnId id = 1; id <= 10; ++id) {
    const TxnResult reply = cluster.RunTxn(
        MakeTxn(id, {Operation::Write(static_cast<ItemId>(id % 8),
                                      static_cast<Value>(id))}),
        static_cast<SiteId>(id % 3));
    ASSERT_EQ(reply.outcome, TxnOutcome::kCommitted) << "txn " << id;
  }
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.messages_dropped, 0u);
  EXPECT_GT(stats.channel.dup_suppressed, 0u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok())
      << cluster.CheckReplicaAgreement().ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, ClusterFaultsTest,
                         ::testing::Values(ClusterBackend::kSim,
                                           ClusterBackend::kInProc,
                                           ClusterBackend::kTcp),
                         BackendParamName);

using ClusterFaultsDeathTest = ClusterFaultsTest;

TEST_P(ClusterFaultsDeathTest, DuplicationWithoutTheChannelIsRefused) {
  // The channel is the only layer that absorbs a second copy, so every
  // backend refuses duplication with it off, before any loop starts.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ClusterOptions options = Options();
  options.faults.duplicate_probability = 0.5;
  EXPECT_DEATH((void)MakeCluster(options), "needs the reliable channel");
}

INSTANTIATE_TEST_SUITE_P(Backends, ClusterFaultsDeathTest,
                         ::testing::Values(ClusterBackend::kSim,
                                           ClusterBackend::kInProc,
                                           ClusterBackend::kTcp),
                         BackendParamName);

}  // namespace
}  // namespace miniraid

// Unit tests of the ReliableChannel over the fault layer and the simulator
// transport: loss is repaired by retransmission, duplicates are suppressed,
// reordering is hidden behind the per-pair FIFO contract, and a permanently
// silent peer bounds the retransmission effort (abandon after 8
// retransmissions).

#include "net/reliable_channel.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "net/faults.h"
#include "net/sim_transport.h"
#include "sim/sim_runtime.h"

namespace miniraid {
namespace {

/// Records every delivered CommitDecision's txn id, in delivery order.
class Recorder : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override {
    if (msg.type == MsgType::kCommit) {
      txns.push_back(msg.As<CommitArgs>().txn);
    }
  }
  std::vector<TxnId> txns;
};

/// Two endpoints (0 and 1), each a ReliableChannel over its own FaultLayer
/// over one shared SimTransport: the stack a cluster wires.
struct Pair {
  Pair(SimRuntime* sim, const TransportFaults& faults)
      : transport(sim, SimTransportOptions{}),
        injector(faults),
        layer0(&injector, &transport, /*upper=*/nullptr),
        layer1(&injector, &transport, /*upper=*/nullptr),
        ch0(0, &layer0, sim->RuntimeFor(0), &rec0),
        ch1(1, &layer1, sim->RuntimeFor(1), &rec1) {
    layer0.set_upper(&ch0);
    layer1.set_upper(&ch1);
    transport.Register(0, &layer0);
    transport.Register(1, &layer1);
  }
  SimTransport transport;
  FaultInjector injector;
  FaultLayer layer0, layer1;
  Recorder rec0, rec1;
  ReliableChannel ch0, ch1;
};

TEST(ReliableChannelTest, RetransmitsEveryLostMessageInOrder) {
  SimRuntime sim;
  TransportFaults faults;
  // Drop the FIRST transmission of every data message from site 0; let
  // retransmissions (and everything from site 1) through.
  std::set<uint64_t> seen;
  faults.drop_filter = [&seen](const Message& msg) {
    if (msg.from != 0 || msg.seq == 0) return false;
    return seen.insert(msg.seq).second;
  };
  Pair pair(&sim, faults);
  for (TxnId t = 1; t <= 10; ++t) {
    ASSERT_TRUE(pair.ch0.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(pair.rec1.txns.size(), 10u);
  for (TxnId t = 1; t <= 10; ++t) {
    EXPECT_EQ(pair.rec1.txns[t - 1], t);
  }
  EXPECT_EQ(pair.ch0.counters().retransmits, 10u);
  EXPECT_EQ(pair.ch0.counters().abandoned, 0u);
  EXPECT_EQ(pair.ch0.counters().acked, 10u);
  EXPECT_EQ(pair.ch1.counters().delivered, 10u);
}

TEST(ReliableChannelTest, TransportDuplicatesSuppressedAtReceiver) {
  SimRuntime sim;
  TransportFaults faults;
  faults.duplicate_probability = 1.0;  // every message arrives twice
  Pair pair(&sim, faults);
  for (TxnId t = 1; t <= 20; ++t) {
    ASSERT_TRUE(pair.ch0.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(pair.rec1.txns.size(), 20u);
  for (TxnId t = 1; t <= 20; ++t) {
    EXPECT_EQ(pair.rec1.txns[t - 1], t);
  }
  EXPECT_EQ(pair.ch1.counters().dup_suppressed, 20u);
  EXPECT_EQ(pair.ch1.counters().delivered, 20u);
  EXPECT_EQ(pair.ch0.counters().retransmits, 0u);
}

TEST(ReliableChannelTest, GapIsBufferedAndReleasedInSequence) {
  SimRuntime sim;
  TransportFaults faults;
  // Lose only seq 1 (once): seqs 2..5 arrive first and must wait for the
  // retransmission to fill the gap, then deliver strictly in order.
  bool dropped = false;
  faults.drop_filter = [&dropped](const Message& msg) {
    if (msg.from == 0 && msg.seq == 1 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  Pair pair(&sim, faults);
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_TRUE(pair.ch0.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(pair.rec1.txns.size(), 5u);
  for (TxnId t = 1; t <= 5; ++t) {
    EXPECT_EQ(pair.rec1.txns[t - 1], t) << "FIFO broken across a gap";
  }
  EXPECT_EQ(pair.ch1.counters().out_of_order_buffered, 4u);
  // Acks are cumulative (no selective acks): buffered 2..5 stay unacked
  // until the gap fills, so the sender may retransmit them too — at least
  // the lost message goes again, at most one round for all five.
  EXPECT_GE(pair.ch0.counters().retransmits, 1u);
  EXPECT_LE(pair.ch0.counters().retransmits, 5u);
}

TEST(ReliableChannelTest, AbandonsAfterMaxRetransmits) {
  SimRuntime sim;
  TransportFaults faults;
  // A black hole towards site 1: every data message from 0 is dropped.
  faults.drop_filter = [](const Message& msg) {
    return msg.from == 0 && msg.seq > 0;
  };
  Pair pair(&sim, faults);
  ASSERT_TRUE(pair.ch0.Send(MakeMessage(0, 1, CommitArgs{1})).ok());
  sim.RunUntilIdle();  // terminates: the channel gives up, timers stop
  EXPECT_TRUE(pair.rec1.txns.empty());
  // The channel's fixed limit: 8 retransmissions, then it abandons.
  EXPECT_EQ(pair.ch0.counters().retransmits, 8u);
  EXPECT_EQ(pair.ch0.counters().abandoned, 1u);
  EXPECT_EQ(pair.ch0.counters().acked, 0u);
}

TEST(ReliableChannelTest, UnsequencedDatagramBypassesDedup) {
  // A message from a sender with no channel (seq = 0) must still reach the
  // upper handler — mixed deployments and control probes rely on it.
  SimRuntime sim;
  SimTransport transport(&sim, SimTransportOptions{});
  Recorder rec1;
  ReliableChannel ch1(1, &transport, sim.RuntimeFor(1), &rec1);
  transport.Register(1, &ch1);
  ASSERT_TRUE(transport.Send(MakeMessage(9, 1, CommitArgs{42})).ok());
  sim.RunUntilIdle();
  ASSERT_EQ(rec1.txns.size(), 1u);
  EXPECT_EQ(rec1.txns[0], 42u);
  EXPECT_EQ(ch1.counters().delivered, 0u);  // not a sequenced delivery
}

TEST(ReliableChannelTest, BidirectionalTrafficPiggybacksAcks) {
  SimRuntime sim;
  Pair pair(&sim, TransportFaults{});
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_TRUE(pair.ch0.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
    ASSERT_TRUE(pair.ch1.Send(MakeMessage(1, 0, CommitArgs{100 + t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(pair.rec1.txns.size(), 5u);
  ASSERT_EQ(pair.rec0.txns.size(), 5u);
  EXPECT_EQ(pair.ch0.counters().acked, 5u);
  EXPECT_EQ(pair.ch1.counters().acked, 5u);
  EXPECT_EQ(pair.ch0.counters().retransmits, 0u);
  EXPECT_EQ(pair.ch1.counters().retransmits, 0u);
}

}  // namespace
}  // namespace miniraid

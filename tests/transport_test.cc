#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/inproc_transport.h"
#include "net/sim_transport.h"

namespace miniraid {
namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

class Recorder : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override { messages.push_back(msg); }
  std::vector<Message> messages;
};

/// A Recorder that the test thread may read while the loop delivers, and
/// that stamps each arrival.
class Collector : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(msg);
    arrivals_.push_back(std::chrono::steady_clock::now());
  }

  /// Waits up to 10 s for `n` messages.
  bool WaitForCount(size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (Count() >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_.size();
  }
  Message At(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_.at(i);
  }
  SteadyTime ArrivalAt(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_.at(i);
  }

 private:
  std::mutex mu_;
  std::vector<Message> messages_;
  std::vector<SteadyTime> arrivals_;
};

TEST(SimTransportTest, DeliversAfterLatency) {
  SimRuntime sim;
  SimTransportOptions options;
  options.message_latency = Milliseconds(9);
  SimTransport transport(&sim, options);
  Recorder recorder;
  transport.Register(1, &recorder);

  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{5})).ok());
  sim.RunUntil(Milliseconds(8));
  EXPECT_TRUE(recorder.messages.empty());
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.messages.size(), 1u);
  EXPECT_EQ(recorder.messages[0].As<CommitArgs>().txn, 5u);
  EXPECT_EQ(transport.messages_sent(), 1u);
}

TEST(SimTransportTest, UnknownDestinationIsError) {
  SimRuntime sim;
  SimTransport transport(&sim, SimTransportOptions{});
  const Status status = transport.Send(MakeMessage(0, 9, CommitArgs{1}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SimTransportTest, FifoPerPair) {
  SimRuntime sim;
  SimTransport transport(&sim, SimTransportOptions{});
  Recorder recorder;
  transport.Register(1, &recorder);
  for (TxnId t = 1; t <= 20; ++t) {
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  sim.RunUntilIdle();
  ASSERT_EQ(recorder.messages.size(), 20u);
  for (TxnId t = 1; t <= 20; ++t) {
    EXPECT_EQ(recorder.messages[t - 1].As<CommitArgs>().txn, t);
  }
}

TEST(SimTransportTest, SendsDuringHandlerDepartAfterCharges) {
  SimRuntime sim;
  SimTransportOptions options;
  options.message_latency = Milliseconds(9);
  SimTransport transport(&sim, options);

  class Relay : public MessageHandler {
   public:
    Relay(SimRuntime* sim, SimTransport* transport)
        : sim_(sim), transport_(transport) {}
    void OnMessage(const Message&) override {
      sim_->RuntimeFor(1)->ChargeCpu(Milliseconds(5));
      (void)transport_->Send(MakeMessage(1, 2, CommitAckArgs{1}));
    }
    SimRuntime* sim_;
    SimTransport* transport_;
  };

  class Timestamper : public MessageHandler {
   public:
    explicit Timestamper(SimRuntime* sim) : sim_(sim) {}
    void OnMessage(const Message&) override { arrival = sim_->now(); }
    SimRuntime* sim_;
    TimePoint arrival = -1;
  };

  Relay relay(&sim, &transport);
  Timestamper timestamper(&sim);
  transport.Register(1, &relay);
  transport.Register(2, &timestamper);

  sim.ScheduleGlobalEvent(0, [&] {
    (void)transport.Send(MakeMessage(0, 1, CommitArgs{1}));
  });
  sim.RunUntilIdle();
  // Path: send at 0 -> arrives at 9 -> 5 ms CPU -> departs 14 -> arrives 23.
  EXPECT_EQ(timestamper.arrival, Milliseconds(23));
}

TEST(InProcTransportTest, CodecRoundTripDelivery) {
  EventLoop loop;
  InProcTransport transport;
  Recorder recorder;
  transport.Register(1, &loop, &recorder);

  PrepareArgs args;
  args.txn = 11;
  args.writes = {ItemWrite{3, 42}};
  ASSERT_TRUE(transport.Send(MakeMessage(0, 1, args)).ok());

  // Drain the loop: post a marker and wait for it.
  loop.PostAndWait([] {});
  ASSERT_EQ(recorder.messages.size(), 1u);
  EXPECT_EQ(recorder.messages[0].As<PrepareArgs>().writes[0].value, 42);
}

TEST(InProcTransportTest, FifoAcrossManyMessages) {
  EventLoop loop;
  InProcTransport transport;
  Recorder recorder;
  transport.Register(1, &loop, &recorder);
  for (TxnId t = 1; t <= 100; ++t) {
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  loop.PostAndWait([] {});
  ASSERT_EQ(recorder.messages.size(), 100u);
  for (TxnId t = 1; t <= 100; ++t) {
    EXPECT_EQ(recorder.messages[t - 1].As<CommitArgs>().txn, t);
  }
}

TEST(InProcTransportTest, UnknownDestinationIsError) {
  InProcTransport transport;
  EXPECT_EQ(transport.Send(MakeMessage(0, 3, CommitArgs{1})).code(),
            StatusCode::kInvalidArgument);
}

TEST(InProcTransportTest, ConcurrentSendersEachKeepTheirOrder) {
  // Four senders hand frames to one inbox at once (run it under the tsan
  // preset too); each sender's sequence must arrive whole and in order.
  // The first `registered` senders send from tasks on their own loops, 100
  // frames a task; the others from threads of their own, with no loop.
  constexpr SiteId kSenders = 4;
  constexpr TxnId kPerSender = 10000;
  for (const SiteId registered : {SiteId{0}, SiteId{3}}) {
    SCOPED_TRACE(registered);
    Collector collector;
    Recorder idle;  // registered senders receive nothing
    EventLoop loop;
    InProcTransport transport;
    // Declared after the transport, so the sender loops stop (finishing
    // the task that may be sending) before it is destroyed.
    std::vector<std::unique_ptr<EventLoop>> sender_loops;
    transport.Register(kSenders, &loop, &collector);
    for (SiteId from = 0; from < registered; ++from) {
      sender_loops.push_back(std::make_unique<EventLoop>());
      transport.Register(from, sender_loops.back().get(), &idle);
    }
    auto send = [&transport](SiteId from, TxnId first, TxnId last) {
      for (TxnId t = first; t <= last; ++t) {
        ASSERT_TRUE(
            transport.Send(MakeMessage(from, kSenders, CommitArgs{t})).ok());
      }
    };
    std::vector<std::thread> senders;
    for (SiteId from = 0; from < kSenders; ++from) {
      if (from < registered) {
        for (TxnId t = 1; t <= kPerSender; t += 100) {
          sender_loops[from]->Post([&send, from, t] { send(from, t, t + 99); });
        }
      } else {
        senders.emplace_back([&send, from] { send(from, 1, kPerSender); });
      }
    }
    for (std::thread& sender : senders) sender.join();
    ASSERT_TRUE(collector.WaitForCount(size_t{kSenders} * kPerSender));
    loop.PostAndWait([] {});
    ASSERT_EQ(collector.Count(), size_t{kSenders} * kPerSender);
    EXPECT_EQ(transport.messages_sent(), uint64_t{kSenders} * kPerSender);
    std::vector<TxnId> last(kSenders, 0);
    for (size_t i = 0; i < collector.Count(); ++i) {
      const Message msg = collector.At(i);
      ASSERT_LT(msg.from, kSenders);
      ASSERT_EQ(msg.As<CommitArgs>().txn, last[msg.from] + 1)
          << "sender " << msg.from;
      last[msg.from] = msg.As<CommitArgs>().txn;
    }
  }
}

TEST(InProcTransportTest, LatencyDelaysEveryMessageInSendOrder) {
  constexpr TxnId kCount = 50;
  const Duration latency = Milliseconds(5);
  // Site 0 sends from the test thread, then from a task on its own loop.
  for (const bool registered : {false, true}) {
    SCOPED_TRACE(registered);
    Collector collector;
    Recorder idle;
    EventLoop loop;
    EventLoop sender_loop;
    InProcTransportOptions options;
    options.message_latency = latency;
    InProcTransport transport(options);
    transport.Register(1, &loop, &collector);
    if (registered) transport.Register(0, &sender_loop, &idle);
    std::vector<SteadyTime> sent;
    auto send_all = [&] {
      for (TxnId t = 1; t <= kCount; ++t) {
        sent.push_back(std::chrono::steady_clock::now());
        ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
        if (t % 10 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    };
    if (registered) {
      sender_loop.PostAndWait(send_all);
    } else {
      send_all();
    }
    ASSERT_TRUE(collector.WaitForCount(kCount));
    for (TxnId t = 1; t <= kCount; ++t) {
      EXPECT_EQ(collector.At(t - 1).As<CommitArgs>().txn, t);
      EXPECT_GE(collector.ArrivalAt(t - 1) - sent[t - 1],
                std::chrono::nanoseconds(latency))
          << "txn " << t;
    }
  }
}

TEST(InProcTransportTest, RegisteredSenderHandsOverWhenItsTurnEnds) {
  // Frames a loop task sends wait in its outbox until the task returns,
  // however long it runs, then arrive together and in order.
  Collector collector;
  Recorder idle;
  EventLoop loop;
  EventLoop sender_loop;
  InProcTransport transport;
  transport.Register(1, &loop, &collector);
  transport.Register(0, &sender_loop, &idle);
  size_t delivered_mid_turn = 0;
  sender_loop.PostAndWait([&] {
    for (TxnId t = 1; t <= 50; ++t) {
      ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    delivered_mid_turn = collector.Count();
    for (TxnId t = 51; t <= 100; ++t) {
      ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{t})).ok());
    }
  });
  EXPECT_EQ(delivered_mid_turn, 0u);
  EXPECT_EQ(transport.messages_sent(), 100u);
  ASSERT_TRUE(collector.WaitForCount(100));
  loop.PostAndWait([] {});
  ASSERT_EQ(collector.Count(), 100u);
  for (TxnId t = 1; t <= 100; ++t) {
    EXPECT_EQ(collector.At(t - 1).As<CommitArgs>().txn, t);
  }
}

TEST(InProcTransportTest, DestroyedWithDrainAndDelayedFrameQueued) {
  // The queued drain holds the inbox and the delayed frame's timer holds
  // the sender's outbox, neither the transport (run it under the asan
  // preset too).
  Collector collector;
  Recorder idle;
  EventLoop loop;
  EventLoop sender_loop;
  std::atomic<bool> hold{true};
  loop.Post([&hold] {
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  {
    InProcTransportOptions options;
    options.message_latency = Milliseconds(5);
    InProcTransport transport(options);
    transport.Register(1, &loop, &collector);
    transport.Register(0, &sender_loop, &idle);
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{7})).ok());
    // Once its timer has fired, the sender's loop hands the first frame
    // over, and the drain that delivers it queues behind `hold`.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sender_loop.PostAndWait([] {});
    // The second frame's timer is still pending when the transport goes.
    ASSERT_TRUE(transport.Send(MakeMessage(0, 1, CommitArgs{8})).ok());
  }
  hold = false;
  ASSERT_TRUE(collector.WaitForCount(2));
  EXPECT_EQ(collector.At(0).As<CommitArgs>().txn, 7u);
  EXPECT_EQ(collector.At(1).As<CommitArgs>().txn, 8u);
}

}  // namespace
}  // namespace miniraid

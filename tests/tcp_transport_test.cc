#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace miniraid {
namespace {

class Collector : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mu);
    messages.push_back(msg);
  }
  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return messages.size();
  }
  Message At(size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return messages.at(i);
  }

  std::mutex mu;
  std::vector<Message> messages;
};

bool WaitForCount(Collector& collector, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (collector.Count() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const uint16_t base = PickEphemeralBasePort();
    ports_ = {{0, base}, {1, static_cast<uint16_t>(base + 1)}};
    a_ = std::make_unique<TcpTransport>(0, ports_, &loop_a_, &collector_a_);
    b_ = std::make_unique<TcpTransport>(1, ports_, &loop_b_, &collector_b_);
    ASSERT_TRUE(a_->Start().ok());
    ASSERT_TRUE(b_->Start().ok());
  }

  void TearDown() override {
    a_->Stop();
    b_->Stop();
  }

  std::map<SiteId, uint16_t> ports_;
  EventLoop loop_a_, loop_b_;
  Collector collector_a_, collector_b_;
  std::unique_ptr<TcpTransport> a_, b_;
};

TEST_F(TcpTransportTest, SendAndReceive) {
  PrepareArgs args;
  args.txn = 5;
  args.writes = {ItemWrite{1, 11}, ItemWrite{2, 22}};
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, args)).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 1));
  const Message received = collector_b_.At(0);
  EXPECT_EQ(received.type, MsgType::kPrepare);
  EXPECT_EQ(received.As<PrepareArgs>().writes[1].value, 22);
}

TEST_F(TcpTransportTest, BidirectionalTraffic) {
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{1})).ok());
  ASSERT_TRUE(b_->Send(MakeMessage(1, 0, CommitAckArgs{1})).ok());
  EXPECT_TRUE(WaitForCount(collector_b_, 1));
  EXPECT_TRUE(WaitForCount(collector_a_, 1));
  EXPECT_EQ(collector_a_.At(0).type, MsgType::kCommitAck);
}

TEST_F(TcpTransportTest, FifoOverOneConnection) {
  constexpr TxnId kCount = 200;
  for (TxnId t = 1; t <= kCount; ++t) {
    ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{t})).ok());
  }
  ASSERT_TRUE(WaitForCount(collector_b_, kCount));
  for (TxnId t = 1; t <= kCount; ++t) {
    EXPECT_EQ(collector_b_.At(t - 1).As<CommitArgs>().txn, t);
  }
  EXPECT_EQ(a_->messages_sent(), kCount);
  EXPECT_EQ(collector_b_.Count(), kCount);
}

TEST_F(TcpTransportTest, TenThousandFramesFromTheLoopArriveInOrder) {
  // Sent in one loop task, so they all leave in the same flush: one send()
  // for the lot, finished through EPOLLOUT if the socket takes only part.
  constexpr TxnId kCount = 10000;
  loop_a_.PostAndWait([&] {
    for (TxnId t = 1; t <= kCount; ++t) {
      ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{t})).ok());
    }
  });
  ASSERT_TRUE(WaitForCount(collector_b_, kCount));
  for (TxnId t = 1; t <= kCount; ++t) {
    ASSERT_EQ(collector_b_.At(t - 1).As<CommitArgs>().txn, t);
  }
  // The counter counts messages, not socket calls.
  EXPECT_EQ(a_->messages_sent(), kCount);
  EXPECT_EQ(collector_b_.Count(), kCount);
}

TEST_F(TcpTransportTest, OversizedFrameClosesOnlyThatConnection) {
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{1})).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 1));

  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ports_.at(1));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint8_t header[4] = {0xff, 0xff, 0xff, 0x7f};  // far above 16 MiB
  ASSERT_EQ(::send(raw, header, sizeof(header), MSG_NOSIGNAL), 4);
  // The receiver closes that connection: the raw socket reads EOF.
  pollfd readable{raw, POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, /*timeout_ms=*/1000), 1);
  char byte;
  EXPECT_EQ(::recv(raw, &byte, 1, 0), 0);
  ::close(raw);

  // The well-behaved peer keeps delivering.
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, CommitArgs{2})).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 2));
  EXPECT_EQ(collector_b_.At(1).As<CommitArgs>().txn, 2u);
}

TEST_F(TcpTransportTest, StopWithFramesQueuedIsPromptAndFinal) {
  RecoveryInfoArgs args;
  for (ItemId item = 0; item < 20000; ++item) {
    args.fail_locks.push_back(FailLockRow{item, 0x5a5a5a5aULL});
  }
  // ~20 MB: far more than the socket buffers between the two hold.
  constexpr size_t kFrames = 100;
  const Message big = MakeMessage(0, 1, args);
  // Hold the receiver's loop so the frames pile up in the sender.
  std::atomic<bool> hold{true};
  loop_b_.Post([&hold] {
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  loop_a_.PostAndWait([&] {
    for (size_t i = 0; i < kFrames; ++i) ASSERT_TRUE(a_->Send(big).ok());
  });
  loop_a_.PostAndWait([] {});  // the flush has run; the rest is queued
  const auto start = std::chrono::steady_clock::now();
  a_->Stop();
  hold = false;
  b_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  const size_t delivered = collector_b_.Count();
  EXPECT_LT(delivered, kFrames);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(collector_b_.Count(), delivered);
  EXPECT_FALSE(a_->Send(MakeMessage(0, 1, CommitArgs{1})).ok());
}

TEST_F(TcpTransportTest, LargeMessage) {
  RecoveryInfoArgs args;
  for (uint32_t i = 0; i < 4; ++i) {
    args.session_vector.push_back(SessionEntryWire{i, SiteStatus::kUp});
  }
  for (ItemId item = 0; item < 50000; ++item) {
    args.fail_locks.push_back(FailLockRow{item, 0x5a5a5a5aULL});
  }
  ASSERT_TRUE(a_->Send(MakeMessage(0, 1, args)).ok());
  ASSERT_TRUE(WaitForCount(collector_b_, 1));
  EXPECT_EQ(collector_b_.At(0).As<RecoveryInfoArgs>().fail_locks.size(),
            50000u);
}

TEST_F(TcpTransportTest, UnknownPeerIsError) {
  EXPECT_FALSE(a_->Send(MakeMessage(0, 7, CommitArgs{1})).ok());
}

TEST(TcpTransportStandaloneTest, StartWithoutHandlerFails) {
  EventLoop loop;
  std::map<SiteId, uint16_t> ports = {{0, PickEphemeralBasePort()}};
  TcpTransport transport(0, ports, &loop, nullptr);
  EXPECT_EQ(transport.Start().code(), StatusCode::kFailedPrecondition);
}

int OpenFdCount() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

TEST(TcpTransportStandaloneTest, SendRacingStopLeavesNoOpenFd) {
  EventLoop loop_a, loop_b;
  Collector collector_a, collector_b;
  const int baseline = OpenFdCount();
  for (int round = 0; round < 20; ++round) {
    const uint16_t base = PickEphemeralBasePort();
    const std::map<SiteId, uint16_t> ports = {
        {0, base}, {1, static_cast<uint16_t>(base + 1)}};
    TcpTransport a(0, ports, &loop_a, &collector_a);
    TcpTransport b(1, ports, &loop_b, &collector_b);
    ASSERT_TRUE(a.Start().ok());
    ASSERT_TRUE(b.Start().ok());
    // Several senders, so some Send is always between its own checks when
    // Stop runs.
    std::atomic<bool> sending{true};
    std::vector<std::thread> senders;
    for (int i = 0; i < 4; ++i) {
      senders.emplace_back([&] {
        while (sending) (void)a.Send(MakeMessage(0, 1, CommitArgs{1}));
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    a.Stop();
    // Keep sending for a while after Stop: no Send may reconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sending = false;
    for (std::thread& sender : senders) sender.join();
    b.Stop();
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

TEST(TcpTransportStandaloneTest, ConnectToDeadPeerFails) {
  EventLoop loop;
  Collector collector;
  const uint16_t base = static_cast<uint16_t>(PickEphemeralBasePort() + 50);
  std::map<SiteId, uint16_t> ports = {{0, base},
                                      {1, static_cast<uint16_t>(base + 1)}};
  TcpTransport transport(0, ports, &loop, &collector);
  ASSERT_TRUE(transport.Start().ok());
  // Site 1 never started listening.
  EXPECT_EQ(transport.Send(MakeMessage(0, 1, CommitArgs{1})).code(),
            StatusCode::kIoError);
  transport.Stop();
}

}  // namespace
}  // namespace miniraid

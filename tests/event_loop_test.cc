#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "allocation_counter.h"

namespace miniraid {
namespace {

TEST(EventLoopTest, TasksRunInPostOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    loop.Post([&order, i] { order.push_back(i); });
  }
  loop.PostAndWait([] {});
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, TasksRunOnLoopThread) {
  EventLoop loop;
  bool on_loop_thread = false;
  loop.PostAndWait(
      [&] { on_loop_thread = loop.IsCurrentThread(); });
  EXPECT_TRUE(on_loop_thread);
  EXPECT_FALSE(loop.IsCurrentThread());
}

TEST(EventLoopTest, TimerFires) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  loop.ScheduleAfter(Milliseconds(5), [&] { fired = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  const TimerId id =
      loop.ScheduleAfter(Milliseconds(20), [&] { fired = true; });
  loop.CancelTimer(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::atomic<int> fired{0};
  loop.ScheduleAfter(Milliseconds(30), [&] {
    order.push_back(2);
    ++fired;
  });
  loop.ScheduleAfter(Milliseconds(5), [&] {
    order.push_back(1);
    ++fired;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelFromTimerCallback) {
  EventLoop loop;
  std::atomic<bool> second_fired{false};
  std::atomic<bool> done{false};
  loop.PostAndWait([&] {
    const TimerId second = loop.ScheduleAfter(Milliseconds(50), [&] {
      second_fired = true;
    });
    loop.ScheduleAfter(Milliseconds(5), [&, second] {
      loop.CancelTimer(second);
      done = true;
    });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(done);
  EXPECT_FALSE(second_fired);
}

TEST(EventLoopTest, StopIsIdempotent) {
  EventLoop loop;
  loop.Post([] {});
  loop.Stop();
  loop.Stop();  // second stop must be harmless
}

TEST(EventLoopTest, PostAfterStopIsDropped) {
  EventLoop loop;
  loop.Stop();
  EXPECT_FALSE(loop.Post([] { FAIL() << "task ran after Stop"; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

TEST(EventLoopTest, PostAndWaitAfterStopReturnsAtOnce) {
  EventLoop loop;
  loop.Stop();
  bool ran = false;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(loop.PostAndWait([&ran] { ran = true; }));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, SleepingLoopWakesForEveryPost) {
  // Each round trip finds the loop asleep in epoll, so every one of them
  // depends on its eventfd write being seen.
  EventLoop loop;
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(loop.PostAndWait([] {}));
}

TEST(EventLoopTest, CancelEveryOtherOfManyTimers) {
  constexpr int kTimers = 10000;
  constexpr int kBuckets = 10;
  constexpr Duration kStep = Milliseconds(20);
  EventLoop loop;
  std::vector<int> fired;  // loop thread only, until the final sync
  std::atomic<int> live{kTimers / 2};
  auto bucket_of = [](int i) { return (i / 2 * 3) % kBuckets; };
  std::chrono::steady_clock::duration span{};
  loop.PostAndWait([&] {
    const auto start = std::chrono::steady_clock::now();
    std::vector<TimerId> ids;
    for (int i = 0; i < kTimers; ++i) {
      ids.push_back(loop.ScheduleAfter(kStep * (bucket_of(i) + 1), [&, i] {
        fired.push_back(i);
        --live;
      }));
    }
    // Timers 2k and 2k+1 share a delay, so every bucket keeps live timers
    // between the cancelled ones.
    for (int i = 0; i < kTimers; i += 2) loop.CancelTimer(ids[i]);
    span = std::chrono::steady_clock::now() - start;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(live, 0);
  loop.PostAndWait([] {});  // every cancelled deadline has passed too

  // Equal delays were scheduled in index order on one thread, so their
  // deadlines never decrease: each bucket fires in index order.
  std::vector<std::vector<int>> by_bucket(kBuckets);
  for (int i : fired) {
    ASSERT_EQ(i % 2, 1) << "cancelled timer " << i << " fired";
    by_bucket[bucket_of(i)].push_back(i);
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_EQ(by_bucket[b].size(), size_t{kTimers / 2 / kBuckets});
    EXPECT_TRUE(std::is_sorted(by_bucket[b].begin(), by_bucket[b].end()));
  }
  // Buckets are kStep apart, so if scheduling took less than kStep the
  // whole firing order is known: bucket by bucket.
  if (span < std::chrono::nanoseconds(kStep)) {
    std::vector<int> expected;
    for (const auto& bucket : by_bucket) {
      expected.insert(expected.end(), bucket.begin(), bucket.end());
    }
    EXPECT_EQ(fired, expected);
  }
}

TEST(EventLoopTest, EqualDelayOrderSurvivesInterleavedCancels) {
  // Timers share four delays; cancels hit the heap at every depth while
  // later timers are still being scheduled. Survivors of one delay fire in
  // schedule order.
  constexpr int kTimers = 2000;
  constexpr int kBuckets = 4;
  constexpr Duration kStep = Milliseconds(20);
  EventLoop loop;
  std::vector<int> fired;  // loop thread only, until the final sync
  std::vector<bool> cancelled(kTimers, false);
  std::atomic<int> live{0};
  auto bucket_of = [](int i) { return (i * 7) % kBuckets; };
  std::chrono::steady_clock::duration span{};
  loop.PostAndWait([&] {
    const auto start = std::chrono::steady_clock::now();
    std::vector<TimerId> ids;
    for (int i = 0; i < kTimers; ++i) {
      ids.push_back(loop.ScheduleAfter(kStep * (bucket_of(i) + 1), [&, i] {
        fired.push_back(i);
        --live;
      }));
      ++live;
      // Cancel an earlier timer at a stride that visits every bucket, and
      // now and then the newest one.
      if (i % 3 == 2) {
        const int victim = (i * 5) % (i + 1);
        if (!cancelled[victim]) {
          loop.CancelTimer(ids[victim]);
          cancelled[victim] = true;
          --live;
        }
      }
      if (i % 11 == 0) {
        loop.CancelTimer(ids[i]);
        if (!cancelled[i]) --live;
        cancelled[i] = true;
      }
    }
    span = std::chrono::steady_clock::now() - start;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(live, 0);
  loop.PostAndWait([] {});

  std::vector<std::vector<int>> by_bucket(kBuckets);
  for (int i : fired) {
    ASSERT_FALSE(cancelled[i]) << "cancelled timer " << i << " fired";
    by_bucket[bucket_of(i)].push_back(i);
  }
  size_t survivors = 0;
  for (int i = 0; i < kTimers; ++i) survivors += cancelled[i] ? 0 : 1;
  EXPECT_EQ(fired.size(), survivors);
  for (const auto& bucket : by_bucket) {
    EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
  }
  if (span < std::chrono::nanoseconds(kStep)) {
    std::vector<int> expected;
    for (const auto& bucket : by_bucket) {
      expected.insert(expected.end(), bucket.begin(), bucket.end());
    }
    EXPECT_EQ(fired, expected);
  }
}

TEST(EventLoopTest, CancellingFiredIdLeavesSlotsNewTimerArmed) {
  // With one timer pending at a time, each new timer takes the slot the
  // fired one left; the fired id must not reach its successor.
  EventLoop loop;
  std::atomic<int> first_fired{0};
  const TimerId first =
      loop.ScheduleAfter(0, [&first_fired] { ++first_fired; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (first_fired == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(first_fired, 1);
  std::atomic<bool> second_fired{false};
  const TimerId second = loop.ScheduleAfter(
      Milliseconds(20), [&second_fired] { second_fired = true; });
  EXPECT_NE(first, second);
  loop.CancelTimer(first);
  loop.CancelTimer(first);
  while (!second_fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(first_fired, 1);
  // The same holds for a cancelled id whose slot was reused.
  std::atomic<bool> third_fired{false};
  const TimerId cancelled = loop.ScheduleAfter(Milliseconds(20), [] {});
  loop.CancelTimer(cancelled);
  loop.ScheduleAfter(Milliseconds(20), [&third_fired] { third_fired = true; });
  loop.CancelTimer(cancelled);
  while (!third_fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(third_fired);
}

TEST(EventLoopTest, SteadyStateScheduleCancelAllocatesNothing) {
  // A patience timer's lifecycle: scheduled with a two-word capture,
  // cancelled when the answer arrives.
  EventLoop loop;
  std::atomic<int> fired{0};
  auto cycle = [&loop, &fired](uint64_t txn) {
    const TimerId id = loop.ScheduleAfter(Seconds(10), [&fired, txn] {
      fired += static_cast<int>(txn % 2) + 1;
    });
    loop.CancelTimer(id);
  };
  for (uint64_t txn = 0; txn < 16; ++txn) cycle(txn);  // grow the tables
  const size_t before = allocations;
  for (uint64_t txn = 16; txn < 1016; ++txn) cycle(txn);
  EXPECT_EQ(allocations - before, 0u);
  loop.PostAndWait([] {});
  EXPECT_EQ(fired, 0);
}

/// A non-blocking pipe, closed on scope exit.
struct Pipe {
  Pipe() { EXPECT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0); }
  ~Pipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  int read_end() const { return fds[0]; }
  void Write() const { EXPECT_EQ(::write(fds[1], "x", 1), 1); }
  int fds[2] = {-1, -1};
};

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(EventLoopTest, WatchedFdCallbackRunsOnLoopAndMayUnwatchItself) {
  EventLoop loop;
  Pipe pipe;
  std::atomic<int> calls{0};
  std::atomic<bool> on_loop{false};
  loop.PostAndWait([&] {
    loop.Watch(pipe.read_end(), EPOLLIN, [&](uint32_t events) {
      on_loop = loop.IsCurrentThread() && (events & EPOLLIN) != 0;
      ++calls;
      loop.Unwatch(pipe.read_end());
    });
  });
  pipe.Write();
  ASSERT_TRUE(WaitFor([&] { return calls > 0; }));
  // The byte is never read, so the pipe stays readable: another call would
  // mean the unwatch did not take.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.PostAndWait([] {});
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(on_loop);
}

TEST(EventLoopTest, UnwatchDropsAnEventPendingInTheSamePass) {
  EventLoop loop;
  Pipe first, second;
  first.Write();
  second.Write();
  std::atomic<int> calls{0};
  // Both pipes are readable before either is watched, so one poll reports
  // both; whichever callback runs first unwatches the other.
  loop.PostAndWait([&] {
    auto unwatch_both = [&](uint32_t) {
      ++calls;
      loop.Unwatch(first.read_end());
      loop.Unwatch(second.read_end());
    };
    loop.Watch(first.read_end(), EPOLLIN, unwatch_both);
    loop.Watch(second.read_end(), EPOLLIN, unwatch_both);
  });
  ASSERT_TRUE(WaitFor([&] { return calls > 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.PostAndWait([] {});
  EXPECT_EQ(calls, 1);
}

TEST(EventLoopTest, BusyLoopStillServicesReadableFd) {
  EventLoop loop;
  Pipe pipe;
  std::atomic<bool> seen{false};
  std::atomic<bool> spinning{true};
  loop.PostAndWait([&] {
    loop.Watch(pipe.read_end(), EPOLLIN, [&](uint32_t) {
      char c;
      EXPECT_EQ(::read(pipe.read_end(), &c, 1), 1);
      seen = true;
    });
  });
  // A task that re-posts itself keeps the queue from ever draining.
  std::function<void()> spin = [&] {
    if (spinning) loop.Post(spin);
  };
  loop.Post(spin);
  pipe.Write();
  const bool serviced = WaitFor([&] { return seen.load(); });
  spinning = false;
  loop.PostAndWait([&] { loop.Unwatch(pipe.read_end()); });
  EXPECT_TRUE(serviced);
}

TEST(EventLoopTest, TimerFiresOnTimeWhileFdsAreWatched) {
  EventLoop loop;
  Pipe pipe;
  loop.PostAndWait(
      [&] { loop.Watch(pipe.read_end(), EPOLLIN, [](uint32_t) {}); });
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> fired_after_ns{-1};
  loop.ScheduleAfter(Milliseconds(5), [&] {
    fired_after_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  });
  ASSERT_TRUE(WaitFor([&] { return fired_after_ns >= 0; }));
  EXPECT_GE(fired_after_ns, Milliseconds(5));
  EXPECT_LT(fired_after_ns, Milliseconds(100));
  loop.PostAndWait([&] { loop.Unwatch(pipe.read_end()); });
}

/// The calling thread's write syscalls so far (the `syscw` line of
/// /proc/thread-self/io), or -1 where that file is missing.
int64_t ThreadWriteSyscalls() {
  std::ifstream io("/proc/thread-self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") return value;
  }
  return -1;
}

TEST(EventLoopTest, PostFromFdCallbackOfWokenLoopWritesNoEventfd) {
  if (ThreadWriteSyscalls() < 0) {
    GTEST_SKIP() << "/proc/thread-self/io is missing";
  }
  EventLoop loop;
  Pipe pipe;
  std::atomic<int64_t> writes{-1};
  std::atomic<bool> ran{false};
  loop.PostAndWait([&] {
    loop.Watch(pipe.read_end(), EPOLLIN, [&](uint32_t) {
      char c;
      EXPECT_EQ(::read(pipe.read_end(), &c, 1), 1);
      const int64_t before = ThreadWriteSyscalls();
      loop.Post([&ran] { ran = true; });
      writes = ThreadWriteSyscalls() - before;
    });
  });
  // The loop falls asleep with nothing to do; only the pipe wakes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pipe.Write();
  ASSERT_TRUE(WaitFor([&] { return ran.load(); }));
  // The loop is awake once its wait returns, so posting to it from its
  // own callback needs no eventfd write.
  EXPECT_EQ(writes, 0);
  loop.PostAndWait([&] { loop.Unwatch(pipe.read_end()); });
}

TEST(ThreadSiteRuntimeTest, NowAdvances) {
  EventLoop loop;
  SteadyClock clock;
  ThreadSiteRuntime runtime(&loop, &clock);
  const TimePoint a = runtime.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(runtime.Now(), a);
}

}  // namespace
}  // namespace miniraid

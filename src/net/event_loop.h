#ifndef MINIRAID_NET_EVENT_LOOP_H_
#define MINIRAID_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/runtime.h"

namespace miniraid {

/// A single-threaded executor with timers and fd readiness callbacks: the
/// real-time analogue of one site's execution context. Tasks posted from
/// any thread run in FIFO order on the loop thread; timers and fd callbacks
/// run there too, so code running inside the loop never needs locks
/// (mirroring the simulator's contract).
///
/// The loop sleeps in epoll on an eventfd plus every watched fd. Post and
/// ScheduleAfter write the eventfd only when the loop is asleep, so a busy
/// loop takes new work without a syscall. The loop counts as awake from
/// the moment its wait returns, so the tasks its own fd callbacks post
/// (TcpTransport's flush) cost no syscall either. A loop that watches fds
/// also polls them (zero timeout) between two back-to-back task batches,
/// so a task stream that never drains cannot starve its sockets; a loop
/// that watches none never polls while it has work.
class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues `task` to run on the loop thread. Safe from any thread.
  /// Returns false, dropping the task, once Stop() has begun.
  MR_RUNS_ON(any) bool Post(std::function<void()> task);

  /// Runs `fn` on the loop thread after `delay`. Timers with equal
  /// deadlines fire in the order they were scheduled. Safe from any thread.
  /// O(log n) in the pending timers; allocates nothing once the timer
  /// table has grown to the loop's peak pending count (a callable that
  /// fits std::function's inline buffer, such as a two-pointer capture,
  /// allocates nothing either).
  MR_RUNS_ON(any) TimerId ScheduleAfter(Duration delay, std::function<void()> fn);

  /// Cancels a pending timer (no-op if it already fired or was cancelled,
  /// even after its table slot went to a newer timer). O(log n). Safe
  /// from any thread, including the loop thread.
  MR_RUNS_ON(any) void CancelTimer(TimerId id);

  /// Calls `on_ready(revents)` on the loop thread whenever `fd` is ready
  /// for `events` (EPOLLIN and/or EPOLLOUT, level-triggered; EPOLLERR and
  /// EPOLLHUP are always reported). Watching a watched fd replaces its
  /// interest set and callback. The caller keeps ownership of `fd` and
  /// must Unwatch it before closing it. Loop thread only.
  MR_RUNS_ON(loop)
  void Watch(int fd, uint32_t events, std::function<void(uint32_t)> on_ready);

  /// Stops watching `fd`. Safe from inside any fd callback, `fd`'s own
  /// included: an event for `fd` still pending in this turn is dropped.
  /// Loop thread only.
  MR_RUNS_ON(loop) void Unwatch(int fd);

  /// Stops the loop and joins the thread. Pending tasks/timers are dropped.
  /// Idempotent. Must not be called from the loop thread.
  MR_RUNS_ON(client) void Stop();

  MR_RUNS_ON(any) bool IsCurrentThread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  /// Posts `task` and blocks until it has run (deadlocks if called from the
  /// loop thread; asserted). Returns false at once, without running the
  /// task, if the loop has stopped.
  MR_RUNS_ON(client) bool PostAndWait(std::function<void()> task);

  /// The queue mutex, public only so that other layers can name it in
  /// lock-order annotations (see TcpTransport: transport mutexes are
  /// MR_ACQUIRED_BEFORE this one, making it the innermost lock — tasks,
  /// timers and fd callbacks always run with it released, so loop-thread
  /// code may take transport locks, never the reverse). Do not lock it
  /// outside EventLoop.
  Mutex mu_;

 private:
  /// A pending timer's callback. Slots are reused; `id` tells the current
  /// timer apart from an earlier one that held the slot.
  struct TimerSlot {
    TimerId id = kInvalidTimer;  // kInvalidTimer while free
    uint32_t heap_pos = 0;       // index of this timer's entry in the heap
    std::function<void()> fn;
  };
  /// The timer heap orders entries by (deadline, id). A TimerId is
  /// (sequence << kTimerSlotBits) | slot, so ids grow with every schedule
  /// (equal deadlines fire in schedule order) and name their slot.
  struct TimerEntry {
    std::chrono::steady_clock::time_point deadline;
    TimerId id;
  };
  static constexpr int kTimerSlotBits = 24;
  static constexpr TimerId kTimerSlotMask = (TimerId{1} << kTimerSlotBits) - 1;

  static bool Earlier(const TimerEntry& a, const TimerEntry& b) {
    return a.deadline < b.deadline ||
           (a.deadline == b.deadline && a.id < b.id);
  }
  /// Stores `entry` at heap index `pos` and records the index in its slot.
  void PlaceTimer(size_t pos, const TimerEntry& entry) MR_REQUIRES(mu_);
  /// Restores the heap order around `pos` after its entry changed.
  void SiftTimer(size_t pos) MR_REQUIRES(mu_);
  /// Removes the timer at heap index `pos`, frees its slot and returns
  /// its callback.
  std::function<void()> TakeTimer(size_t pos) MR_REQUIRES(mu_);

  struct Watcher {
    uint32_t seq;  // tells a stale event for a reused fd number apart
    std::function<void(uint32_t)> on_ready;
  };

  MR_RUNS_ON(loop) void Run();
  /// Waits up to `timeout_ns` (< 0: no limit) for watched fds or a wake-up
  /// and dispatches the ready fd callbacks.
  MR_RUNS_ON(loop) void Poll(int64_t timeout_ns);
  MR_RUNS_ON(any) void Wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd, registered edge-triggered: never read

  std::vector<std::function<void()>> tasks_ MR_GUARDED_BY(mu_);
  /// Pending timers: callbacks in a slot table, order in a binary
  /// min-heap indexed from the slots, so a cancel finds its entry at once.
  std::vector<TimerSlot> timer_slots_ MR_GUARDED_BY(mu_);
  std::vector<uint32_t> free_timer_slots_ MR_GUARDED_BY(mu_);
  std::vector<TimerEntry> timer_heap_ MR_GUARDED_BY(mu_);
  TimerId next_timer_seq_ MR_GUARDED_BY(mu_) = 1;
  /// True while the loop waits (or is about to) in Poll; the first Post
  /// that sees it writes the eventfd and clears it, and Poll clears it as
  /// soon as the wait returns.
  bool sleeping_ MR_GUARDED_BY(mu_) = false;
  /// Written under mu_ (so Post never queues after Stop); also read
  /// without it between the tasks of a batch, to stop promptly.
  std::atomic<bool> stopping_{false};

  /// Indexed by fd. A callback that unwatches (or re-watches) an fd parks
  /// the old watcher in `retired_` until the dispatch pass ends, so no
  /// running callback is destroyed under itself.
  std::vector<std::unique_ptr<Watcher>> watchers_;
  std::vector<std::unique_ptr<Watcher>> retired_;
  size_t watched_ = 0;
  uint32_t next_seq_ = 1;

  std::thread thread_;
};

/// SiteRuntime over an EventLoop and a shared SteadyClock. ChargeCpu is a
/// no-op: real work has real cost.
class ThreadSiteRuntime : public SiteRuntime {
 public:
  /// `clock` must outlive this runtime.
  ThreadSiteRuntime(EventLoop* loop, const Clock* clock)
      : loop_(loop), clock_(clock) {}

  MR_RUNS_ON(any) TimePoint Now() const override { return clock_->Now(); }

  MR_RUNS_ON(any)
  TimerId ScheduleAfter(Duration delay, std::function<void()> fn) override {
    return loop_->ScheduleAfter(delay, std::move(fn));
  }

  MR_RUNS_ON(any) void CancelTimer(TimerId id) override { loop_->CancelTimer(id); }

  MR_RUNS_ON(any) void ChargeCpu(Duration /*amount*/) override {}

  MR_RUNS_ON(any) EventLoop* loop() { return loop_; }

 private:
  EventLoop* loop_;
  const Clock* clock_;
};

}  // namespace miniraid

#endif  // MINIRAID_NET_EVENT_LOOP_H_

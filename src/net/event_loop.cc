#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/logging.h"

namespace miniraid {
namespace {

/// epoll data of the wake-up eventfd. Watched fds carry (seq << 32) | fd,
/// which never has all low 32 bits set.
constexpr uint64_t kWakeToken = ~uint64_t{0};

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MR_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  MR_CHECK(wake_fd_ >= 0) << "eventfd: " << std::strerror(errno);
  // Edge-triggered: every write is one new edge, so the loop never has to
  // read the counter back (it cannot realistically reach its 2^64 bound).
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kWakeToken;
  MR_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0)
      << "epoll_ctl(eventfd): " << std::strerror(errno);
  thread_ = std::thread([this] { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

bool EventLoop::Post(std::function<void()> task) {
  bool wake = false;
  {
    MutexLock lock(mu_);
    if (stopping_.load()) return false;
    tasks_.push_back(std::move(task));
    wake = std::exchange(sleeping_, false);
  }
  if (wake) Wake();
  return true;
}

TimerId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  const auto when =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay);
  TimerId id;
  bool wake = false;
  {
    MutexLock lock(mu_);
    if (stopping_.load()) return kInvalidTimer;
    uint32_t slot = static_cast<uint32_t>(timer_slots_.size());
    if (!free_timer_slots_.empty()) {
      slot = free_timer_slots_.back();
      free_timer_slots_.pop_back();
    } else {
      MR_CHECK(slot <= kTimerSlotMask)
          << "more than " << kTimerSlotMask << " pending timers";
      timer_slots_.emplace_back();
    }
    id = (next_timer_seq_++ << kTimerSlotBits) | slot;
    timer_slots_[slot].id = id;
    timer_slots_[slot].fn = std::move(fn);
    timer_heap_.push_back(TimerEntry{when, id});
    SiftTimer(timer_heap_.size() - 1);
    wake = std::exchange(sleeping_, false);
  }
  if (wake) Wake();
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  if (id == kInvalidTimer) return;
  std::function<void()> cancelled;  // destroyed after the lock is released
  MutexLock lock(mu_);
  const size_t slot = id & kTimerSlotMask;
  // Fired, cancelled, or its slot now holds a newer timer.
  if (slot >= timer_slots_.size() || timer_slots_[slot].id != id) return;
  cancelled = TakeTimer(timer_slots_[slot].heap_pos);
}

void EventLoop::PlaceTimer(size_t pos, const TimerEntry& entry) {
  timer_heap_[pos] = entry;
  timer_slots_[entry.id & kTimerSlotMask].heap_pos = static_cast<uint32_t>(pos);
}

void EventLoop::SiftTimer(size_t pos) {
  const TimerEntry entry = timer_heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Earlier(entry, timer_heap_[parent])) break;
    PlaceTimer(pos, timer_heap_[parent]);
    pos = parent;
  }
  const size_t size = timer_heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && Earlier(timer_heap_[child + 1], timer_heap_[child])) {
      ++child;
    }
    if (!Earlier(timer_heap_[child], entry)) break;
    PlaceTimer(pos, timer_heap_[child]);
    pos = child;
  }
  PlaceTimer(pos, entry);
}

std::function<void()> EventLoop::TakeTimer(size_t pos) {
  const size_t slot = timer_heap_[pos].id & kTimerSlotMask;
  std::function<void()> fn = std::move(timer_slots_[slot].fn);
  timer_slots_[slot].fn = nullptr;
  timer_slots_[slot].id = kInvalidTimer;
  free_timer_slots_.push_back(static_cast<uint32_t>(slot));
  const TimerEntry last = timer_heap_.back();
  timer_heap_.pop_back();
  if (pos < timer_heap_.size()) {
    PlaceTimer(pos, last);
    SiftTimer(pos);
  }
  return fn;
}

void EventLoop::Watch(int fd, uint32_t events,
                      std::function<void(uint32_t)> on_ready) {
  MR_CHECK(IsCurrentThread()) << "EventLoop::Watch off the loop thread";
  MR_CHECK(fd >= 0) << "EventLoop::Watch(" << fd << ")";
  if (static_cast<size_t>(fd) >= watchers_.size()) watchers_.resize(fd + 1);
  std::unique_ptr<Watcher>& slot = watchers_[fd];
  const bool existed = slot != nullptr;
  if (existed) {
    retired_.push_back(std::move(slot));
  } else {
    ++watched_;
  }
  const uint32_t seq = next_seq_++;
  slot = std::make_unique<Watcher>(Watcher{seq, std::move(on_ready)});
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = (uint64_t{seq} << 32) | static_cast<uint32_t>(fd);
  MR_CHECK(::epoll_ctl(epoll_fd_, existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd,
                       &ev) == 0)
      << "epoll_ctl(" << fd << "): " << std::strerror(errno);
}

void EventLoop::Unwatch(int fd) {
  MR_CHECK(IsCurrentThread()) << "EventLoop::Unwatch off the loop thread";
  if (fd < 0 || static_cast<size_t>(fd) >= watchers_.size() ||
      watchers_[fd] == nullptr) {
    return;
  }
  retired_.push_back(std::move(watchers_[fd]));
  --watched_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Stop() {
  bool wake = false;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    wake = std::exchange(sleeping_, false);
  }
  if (wake) Wake();
  MR_CHECK(!IsCurrentThread()) << "EventLoop::Stop from the loop thread";
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::PostAndWait(std::function<void()> task) {
  MR_CHECK(!IsCurrentThread()) << "PostAndWait from the loop thread";
  // The wait state is shared (not stack-captured): the caller may time out
  // or wake the instant `done` is observable, after which its frame is
  // gone; the shared_ptr keeps the state alive for the notifying side.
  struct WaitState {
    Mutex mu;
    CondVar cv;
    bool done MR_GUARDED_BY(mu) = false;
  };
  auto state = std::make_shared<WaitState>();
  const bool queued = Post([state, task = std::move(task)] {
    task();
    {
      MutexLock lock(state->mu);
      state->done = true;
    }
    state->cv.NotifyOne();
  });
  if (!queued) return false;
  // A task queued just before Stop() is dropped unrun; bound the wait so
  // that race cannot hang the caller forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  MutexLock lock(state->mu);
  while (!state->done) {
    if (state->cv.WaitUntil(state->mu, deadline)) break;
  }
  return state->done;
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // A non-blocking eventfd write; it only fails if the counter saturates,
  // which still leaves the fd readable.
  const ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  (void)written;
}

void EventLoop::Poll(int64_t timeout_ns) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  // The loop's own idle wait IS the loop context; there is nothing to
  // block. miniraid-lint: allow(blocking-call)
  const int n = ::epoll_pwait2(epoll_fd_, events, kMaxEvents,
                               timeout_ns < 0 ? nullptr : &timeout, nullptr);
  if (timeout_ns != 0) {
    // Awake from here on: a Post from a callback below, such as
    // TcpTransport's flush, must not write the loop's own eventfd.
    MutexLock lock(mu_);
    sleeping_ = false;
  }
  if (n < 0) {
    MR_CHECK(errno == EINTR) << "epoll_pwait2: " << std::strerror(errno);
    return;
  }
  for (int i = 0; i < n; ++i) {
    const uint64_t token = events[i].data.u64;
    if (token == kWakeToken) continue;
    const auto fd = static_cast<size_t>(token & 0xffffffffu);
    Watcher* watcher = fd < watchers_.size() ? watchers_[fd].get() : nullptr;
    // Unwatched (or re-watched) by an earlier callback of this pass.
    if (watcher == nullptr || watcher->seq != token >> 32) continue;
    watcher->on_ready(events[i].events);
  }
  retired_.clear();
}

void EventLoop::Run() {
  std::vector<std::function<void()>> batch;
  // Whether the watched fds were polled since the last task batch ran: a
  // loop whose queue never drains still services them every other turn.
  bool polled = true;
  while (true) {
    std::function<void()> timer;
    int64_t timeout_ns = 0;
    {
      MutexLock lock(mu_);
      if (stopping_.load()) return;
      if (!tasks_.empty()) {
        if (polled || watched_ == 0) batch.swap(tasks_);
      } else if (!timer_heap_.empty()) {
        const auto now = std::chrono::steady_clock::now();
        const auto first = timer_heap_.front().deadline;
        if (first <= now) {
          timer = TakeTimer(0);
        } else {
          timeout_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(first - now)
                  .count();
          sleeping_ = true;
        }
      } else {
        timeout_ns = -1;
        sleeping_ = true;
      }
    }
    // Tasks, timers and fd callbacks run with mu_ released: it is the
    // innermost lock (see the lock-order annotations on the transport
    // mutexes), so loop-thread code is free to call Transport::Send and
    // the like.
    if (!batch.empty()) {
      for (std::function<void()>& task : batch) {
        if (stopping_.load()) break;
        task();
      }
      batch.clear();
      polled = false;
    } else if (timer) {
      timer();
    } else {
      // Idle: sleep until a post, the first timer or a ready fd. Or tasks
      // are queued right behind a batch: poll the fds without waiting.
      Poll(timeout_ns);
      polled = true;
    }
  }
}

}  // namespace miniraid

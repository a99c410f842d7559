// Fixture: blocking calls reachable from loop- and any-context entries —
// directly, transitively through a helper, and inside a lambda (timer
// callbacks run on the loop, so the blocking pass follows lambda bodies) —
// including the epoll waits an fd-driven loop sleeps in.
#define MR_RUNS_ON(ctx)

struct Duration {
  long long ns;
};

void sleep_for(Duration d);

struct epoll_event;
struct timespec;
int epoll_wait(int epfd, epoll_event* events, int max, int timeout_ms);
int epoll_pwait2(int epfd, epoll_event* events, int max,
                 const timespec* timeout, const void* sigmask);

class Mutex {};

class CondVar {
 public:
  void Wait(Mutex& mu);
};

class Runtime {
 public:
  template <typename F>
  MR_RUNS_ON(any) void ScheduleAfter(Duration d, F fn) {
    pending_ns_ += d.ns;
    fn();
  }

 private:
  long long pending_ns_ = 0;
};

namespace {

void Helper() { sleep_for(Duration{1}); }

}  // namespace

class Site {
 public:
  MR_RUNS_ON(loop) void DirectSleep() { sleep_for(Duration{1}); }

  MR_RUNS_ON(loop) void TransitiveSleep() { Helper(); }

  MR_RUNS_ON(loop) void CondVarWait() {
    Mutex mu;
    CondVar cv;
    cv.Wait(mu);  // member blocking call, receiver-resolved
  }

  MR_RUNS_ON(loop) void TimerSleep(Runtime& rt) {
    rt.ScheduleAfter(Duration{5}, [] { sleep_for(Duration{1}); });
  }

  // A handler that waits for more input instead of returning to its loop.
  MR_RUNS_ON(loop) void WaitForMore(int epfd) {
    epoll_wait(epfd, nullptr, 1, -1);
  }

  MR_RUNS_ON(any) void PollPeers(int epfd) {
    epoll_pwait2(epfd, nullptr, 1, nullptr, nullptr);
  }
};

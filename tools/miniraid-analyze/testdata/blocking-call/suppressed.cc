// Fixture: justified blocking calls on a loop entry, suppressed in place
// (the real tree does this for EventLoop's own idle wait in epoll).
#define MR_RUNS_ON(ctx)

struct Duration {
  long long ns;
};

void sleep_for(Duration d);

struct epoll_event;
struct timespec;
int epoll_pwait2(int epfd, epoll_event* events, int max,
                 const timespec* timeout, const void* sigmask);

class Site {
 public:
  MR_RUNS_ON(loop) void IdleWait() {
    // The loop's own idle wait is what the loop *is*.
    // miniraid-lint: allow(blocking-call)
    sleep_for(Duration{1});
  }

  MR_RUNS_ON(loop) void Poll(int epfd, const timespec* timeout) {
    // The loop sleeps here and nowhere else.
    // miniraid-lint: allow(blocking-call)
    epoll_pwait2(epfd, nullptr, 64, timeout, nullptr);
  }
};

// Fixture: blocking is fine on client-context entries (drivers, dedicated
// IO threads), and loop entries that stay non-blocking are clean.
#define MR_RUNS_ON(ctx)

struct Duration {
  long long ns;
};

void sleep_for(Duration d);

class Site {
 public:
  MR_RUNS_ON(loop) void Step() { ++steps_; }

 private:
  long long steps_ = 0;
};

MR_RUNS_ON(client) void PollLoop(Site& /*site*/) {
  sleep_for(Duration{1000});  // client context: blocking permitted
}

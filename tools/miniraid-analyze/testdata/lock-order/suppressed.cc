// Fixture: the same inverted acquisition as bad.cc defect 2, silenced with
// an allow() comment at the call that acquires against the declared order.
// The analyzer must still SEE the defect (a suppressed finding proves the
// pass ran); the comment is what keeps the exit code at zero.
#define MR_CAPABILITY(x)
#define MR_SCOPED_CAPABILITY
#define MR_ACQUIRE(...)
#define MR_RELEASE(...)
#define MR_ACQUIRED_BEFORE(...)

class MR_CAPABILITY("mutex") Mutex {
 public:
  void Lock() MR_ACQUIRE();
  void Unlock() MR_RELEASE();
};

class MR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MR_ACQUIRE(mu);
  ~MutexLock() MR_RELEASE();
};

class Engine {
 public:
  void Helper() {
    MutexLock lock(outer_);
  }
  void Run() {
    MutexLock lock(inner_);
    // Transitional: Run() predates the declared order; tracked for removal.
    // miniraid-lint: allow(lock-order)
    Helper();
  }

 private:
  Mutex outer_ MR_ACQUIRED_BEFORE(inner_);
  Mutex inner_;
};

// Fixture: two lock-order defects. (1) The declared MR_ACQUIRED_BEFORE
// graph has a cycle (a_ before b_ AND b_ before a_) — no acquisition order
// can satisfy it. (2) A function acquires locks in the order opposite to
// the declared one, through an interprocedural call.
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

// Defect 1: declared cycle.
class Cyclic {
 private:
  Mutex a_ MR_ACQUIRED_BEFORE(b_);
  Mutex b_ MR_ACQUIRED_BEFORE(a_);
};

// Defect 2: Outer holds inner_ while Helper acquires outer_, contradicting
// the declared outer_-before-inner_ order.
class Engine {
 public:
  void Helper() {
    MutexLock lock(outer_);
  }
  void Run() {
    MutexLock lock(inner_);
    Helper();
  }

 private:
  Mutex outer_ MR_ACQUIRED_BEFORE(inner_);
  Mutex inner_;
};

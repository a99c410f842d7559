// Fixture: clean lock discipline. Nested acquisition follows the declared
// MR_ACQUIRED_BEFORE order (directly and through a call), and the condition
// wait only holds the mutex it atomically releases.
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

class CondVar {
 public:
  void Wait(Mutex& mu);
  void SignalAll();
};

class Engine {
 public:
  void Helper() {
    MutexLock lock(inner_);
  }
  void Run() {
    MutexLock lock(outer_);
    Helper();
  }
  void Nested() {
    MutexLock lock(outer_);
    MutexLock inner_lock(inner_);
  }
  void Await() {
    MutexLock lock(outer_);
    cv_.Wait(outer_);  // waits only on the mutex it releases
  }

 private:
  Mutex outer_ MR_ACQUIRED_BEFORE(inner_);
  Mutex inner_;
  CondVar cv_;
};

// Fixture: two shared-state defects. (1) A field written from the managing
// context and read from the loop context with no common mutex held, no
// MR_GUARDED_BY, and no MR_CONTEXT_CONFINED waiver — a cross-context race.
// (2) A field declared MR_GUARDED_BY one mutex while every observed access
// holds a different one — the annotation and the locking disagree.
#define MR_CAPABILITY(x)
#define MR_SCOPED_CAPABILITY
#define MR_ACQUIRE(...)
#define MR_RELEASE(...)
#define MR_GUARDED_BY(x)
#define MR_RUNS_ON(ctx)

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

// Defect 1: hits_ is written on the managing context and read on the loop
// context with no synchronization whatsoever.
class Tally {
 public:
  MR_RUNS_ON(managing) void Bump() { hits_ = hits_ + 1; }
  MR_RUNS_ON(loop) int Snapshot() { return hits_; }

 private:
  int hits_ = 0;
};

// Defect 2: count_ claims mu_a_ as its guard, but both accessors lock
// mu_b_ — whichever of the two the author meant, one of them is wrong.
class Ledger {
 public:
  MR_RUNS_ON(managing) void Add() {
    MutexLock lock(mu_b_);
    count_ = count_ + 1;
  }
  MR_RUNS_ON(managing) int Total() {
    MutexLock lock(mu_b_);
    return count_;
  }

 private:
  Mutex mu_a_;
  Mutex mu_b_;
  int count_ MR_GUARDED_BY(mu_a_) = 0;
};

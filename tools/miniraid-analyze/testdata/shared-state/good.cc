// Fixture: multi-context field access done right, four ways. (1) A field
// reached from two contexts with a common mutex held at every access
// (inferred "guarded" — no annotation needed). (2) A field with a
// MR_CONTEXT_CONFINED waiver documenting phase separation. (3) A field
// only ever touched from one context. (4) A multi-context field that is
// written only during construction and read-only afterwards.
#define MR_CAPABILITY(x)
#define MR_SCOPED_CAPABILITY
#define MR_ACQUIRE(...)
#define MR_RELEASE(...)
#define MR_GUARDED_BY(x)
#define MR_RUNS_ON(ctx)
#define MR_CONTEXT_CONFINED(ctx)

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

// (1) Both contexts hold mu_ at every access: the pass infers "guarded".
class Tally {
 public:
  MR_RUNS_ON(managing) void Bump() {
    MutexLock lock(mu_);
    hits_ = hits_ + 1;
  }
  MR_RUNS_ON(loop) int Snapshot() {
    MutexLock lock(mu_);
    return hits_;
  }

 private:
  Mutex mu_;
  int hits_ = 0;
};

// (2) Reached from two contexts in the call graph, but the phases are
// separated dynamically — documented with a waiver at the field.
class Config {
 public:
  MR_RUNS_ON(client) void Load() { revision_ = revision_ + 1; }
  MR_RUNS_ON(loop) int revision() { return revision_; }

 private:
  // Written only before the loop thread starts; the waiver records the
  // phase argument the call graph cannot see.
  int revision_ MR_CONTEXT_CONFINED(client) = 0;
};

// (3) Single context: no possibility of a race.
class Journal {
 public:
  MR_RUNS_ON(loop) void Append() { entries_ = entries_ + 1; }
  MR_RUNS_ON(loop) int entries() { return entries_; }

 private:
  int entries_ = 0;
};

// (4) Written only in the constructor (single-owner phase), read-only from
// both contexts afterwards.
class Limits {
 public:
  Limits() { cap_ = 64; }
  MR_RUNS_ON(managing) int CapA() { return cap_; }
  MR_RUNS_ON(loop) int CapB() { return cap_; }

 private:
  int cap_ = 0;
};

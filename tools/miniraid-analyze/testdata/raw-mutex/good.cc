// Fixture (lexed as src/core/good.cc): the annotated wrappers.
class Ledger {
 public:
  void Add() { MutexLock lock(mu_); }

 private:
  Mutex mu_;
};

// Fixture (lexed as src/core/bad.cc): raw standard-library synchronization
// outside src/common/, as a member and as a scoped guard.
class Ledger {
 public:
  void Add() { std::lock_guard<std::mutex> lock(mu_); }

 private:
  std::mutex mu_;
};

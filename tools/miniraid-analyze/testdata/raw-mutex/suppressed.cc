// Fixture (lexed as src/core/suppressed.cc): a waived raw mutex.
class Ledger {
 private:
  std::mutex mu_;  // miniraid-lint: allow(raw-mutex)
};

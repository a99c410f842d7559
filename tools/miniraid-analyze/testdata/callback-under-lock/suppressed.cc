// Fixture (lexed as src/net/suppressed.cc): a waived notify under the lock.
void Reply(State* state) {
  MutexLock lock(state->mu);
  state->done = true;
  // miniraid-lint: allow(callback-under-lock)
  state->cv.NotifyOne();
}

// Fixture (lexed as src/net/bad.cc): a reply callback and a condvar notify
// run while the guard still holds the mutex.
void Reply(State* state, Callback callback) {
  MutexLock lock(state->mu);
  state->done = true;
  state->cv.NotifyOne();
  callback(state->reply);
}

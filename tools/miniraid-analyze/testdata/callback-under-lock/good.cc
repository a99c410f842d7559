// Fixture (lexed as src/net/good.cc): the guard's scope closes first.
void Reply(State* state, Callback callback) {
  {
    MutexLock lock(state->mu);
    state->done = true;
  }
  state->cv.NotifyOne();
  callback(state->reply);
}

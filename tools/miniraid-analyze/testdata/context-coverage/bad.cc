// Fixture: a class that annotates one public method must annotate them
// all — an unannotated public entry is a blind spot for the call-graph
// passes.
#define MR_RUNS_ON(ctx)

class SubmitWindow {
 public:
  MR_RUNS_ON(managing) void Submit(int txn) { inflight_ += txn ? 1 : 0; }

  void Close() { closed_ = true; }  // public but unannotated: flagged

 private:
  int inflight_ = 0;
  bool closed_ = false;
};

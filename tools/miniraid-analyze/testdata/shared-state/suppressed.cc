// Fixture: the same cross-context race as bad.cc, silenced by an explicit
// allow() at the field declaration. The analyzer must still SEE the defect
// (the JSON report shows a suppressed shared-state finding); the comment is
// what keeps the exit code at zero.
#define MR_RUNS_ON(ctx)

class Tally {
 public:
  MR_RUNS_ON(managing) void Bump() { hits_ = hits_ + 1; }
  MR_RUNS_ON(loop) int Snapshot() { return hits_; }

 private:
  // Torn reads are tolerated here by design (stats sampling only).
  // miniraid-lint: allow(shared-state)
  int hits_ = 0;
};

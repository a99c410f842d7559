// Fixture: the bad shape silenced by a per-line suppression comment.
#define MR_RUNS_ON(ctx)

class Site {
 public:
  MR_RUNS_ON(loop) void Crash() { crashed_ = true; }

 private:
  bool crashed_ = false;
};

MR_RUNS_ON(client) void SuppressedViolation(Site& site) {
  // Test-only direct poke, single-threaded here by construction.
  // miniraid-lint: allow(cross-context-call)
  site.Crash();
}

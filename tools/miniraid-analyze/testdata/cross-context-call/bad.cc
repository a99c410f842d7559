// Fixture: a client-context entry reaching loop-confined state, both
// directly and transitively through an unannotated helper. Self-contained:
// the macro is defined inline.
#define MR_RUNS_ON(ctx)

class Site {
 public:
  MR_RUNS_ON(loop) void Crash() { crashed_ = true; }
  MR_RUNS_ON(loop) bool is_up() const { return !crashed_; }

 private:
  bool crashed_ = false;
};

namespace {

void Helper(Site& site) { site.Crash(); }

}  // namespace

MR_RUNS_ON(client) bool DirectViolation(Site& site) {
  return site.is_up();  // client touching loop-confined state
}

MR_RUNS_ON(client) void TransitiveViolation(Site& site) {
  Helper(site);  // reaches Site::Crash through the helper
}

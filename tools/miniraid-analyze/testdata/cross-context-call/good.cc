// Fixture: the legal shapes — calling MR_RUNS_ON(any) helpers from any
// context, and marshalling into another context through a posted lambda
// (the confinement pass does not follow lambda bodies by design).
#define MR_RUNS_ON(ctx)

template <typename F>
class Fn;

class Site {
 public:
  MR_RUNS_ON(loop) void Crash() { crashed_ = true; }
  MR_RUNS_ON(any) int id() const { return id_; }

 private:
  int id_ = 0;
  bool crashed_ = false;
};

class EventLoop {
 public:
  template <typename F>
  MR_RUNS_ON(any) void Post(F fn) {
    fn();
  }
};

MR_RUNS_ON(client) int ReadShared(Site& site) {
  return site.id();  // any-context accessor: fine from everywhere
}

MR_RUNS_ON(client) void MarshalledCrash(EventLoop& loop, Site& site) {
  Site* target = &site;  // heap-lived object: by-value capture is sound
  loop.Post([target] { target->Crash(); });  // lambda runs on the loop
}

// Fixture: full coverage — every public method annotated; constructors,
// operators, private helpers and unannotated classes are exempt.
#define MR_RUNS_ON(ctx)

class SubmitWindow {
 public:
  SubmitWindow() = default;  // constructors need no annotation

  MR_RUNS_ON(managing) void Submit(int txn) { Track(txn); }
  MR_RUNS_ON(managing) void Close() { closed_ = true; }
  MR_RUNS_ON(managing) bool closed() const { return closed_; }

  bool operator==(const SubmitWindow& o) const {  // operators exempt
    return closed_ == o.closed_;
  }

 private:
  void Track(int txn) { inflight_ += txn ? 1 : 0; }  // private exempt

  int inflight_ = 0;
  bool closed_ = false;
};

class Unaware {  // no annotations at all: not held to coverage
 public:
  void Anything() {}
};

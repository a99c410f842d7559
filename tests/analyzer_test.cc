// Unit and regression tests for the miniraid-analyze semantic core.
//
// These drive the built-in indexer + checks over inline sources, pinning the
// exact behaviours the fixture selftest cannot express file-by-file:
// receiver-type resolution through aliases and accessor chains, the lambda
// asymmetry between the confinement and blocking passes, and the defects
// found while bringing the analyzer up (decode-sequence file attribution,
// no implicit base->override context inheritance).

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"

namespace miniraid {
namespace analyze {
namespace {

Model BuildModel(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Indexer indexer;
  for (const auto& [path, content] : sources) {
    indexer.AddFile(LexFile(path, content));
  }
  return indexer.Build();
}

std::vector<Finding> Analyze(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Model model = BuildModel(sources);
  std::vector<Finding> findings = RunChecks(model, CheckOptions::Defaults());
  ApplySuppressions(model, &findings);
  return findings;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule,
              bool include_suppressed = false) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule && (include_suppressed || !f.suppressed)) ++n;
  }
  return n;
}

// Annotation macro preamble shared by the context-rule sources. The
// analyzer keys off the MR_RUNS_ON(ctx) spelling itself.
constexpr char kPreamble[] = R"(
#define MR_RUNS_ON(ctx)
)";

// ---------------------------------------------------------------------------
// Receiver-type resolution (ownership rules).
// ---------------------------------------------------------------------------

TEST(OwnershipTest, ResolvesReceiverThroughTypeAlias) {
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class FailLockTable {
 public:
  void Set(int from, int to);
};
using LockTable = FailLockTable;
void Tamper(LockTable& t) { t.Set(1, 2); }
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 1);
}

TEST(OwnershipTest, ResolvesReceiverThroughAccessorChain) {
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class SessionVector {
 public:
  void MarkDown(int site);
};
class Site {
 public:
  SessionVector& sessions();
};
void Tamper(Site& site) { site.sessions().MarkDown(3); }
)"}});
  EXPECT_EQ(CountRule(findings, "session-mutation"), 1);
}

TEST(OwnershipTest, ResolvesReceiverThroughDerivedClass) {
  // Regression: the base-clause parser returned the access specifier as the
  // "type" of `: public FailLockTable` and dropped it, so DerivesFrom never
  // saw any inheritance edge and subclass receivers escaped the rule.
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class FailLockTable {
 public:
  void Set(int from, int to);
};
class InstrumentedTable : public FailLockTable {
 public:
  int writes = 0;
};
void Tamper(InstrumentedTable& t) { t.Set(1, 2); }
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 1);
}

TEST(OwnershipTest, SameNamedMethodOnUnrelatedTypeIsClean) {
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class Bitmap {
 public:
  void Set(int bit, bool value);
};
void Flip(Bitmap& b) { b.Set(7, true); }
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 0);
}

TEST(OwnershipTest, MutationInHomeFileIsAllowed) {
  auto findings = Analyze({{"src/core/site.cc", R"(
class FailLockTable {
 public:
  void Set(int from, int to);
};
void Engine(FailLockTable& t) { t.Set(1, 2); }
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 0);
}

// ---------------------------------------------------------------------------
// Context confinement and the lambda asymmetry.
// ---------------------------------------------------------------------------

TEST(ConfinementTest, FlagsTransitiveCrossContextCall) {
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class Site {
 public:
  MR_RUNS_ON(loop) void Crash();
};
void Helper(Site& s) { s.Crash(); }
class Driver {
 public:
  MR_RUNS_ON(client) void Go(Site& s) { Helper(s); }
};
)"}});
  EXPECT_EQ(CountRule(findings, "cross-context-call"), 1);
}

TEST(ConfinementTest, LambdaBodyIsMarshalledNotInherited) {
  // Posting a lambda is the sanctioned way to hop contexts: the confinement
  // pass must not walk into the lambda body from the enclosing function.
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class Site {
 public:
  MR_RUNS_ON(loop) void Crash();
};
class Loop {
 public:
  template <typename F>
  MR_RUNS_ON(any) void Post(F fn);
};
class Driver {
 public:
  MR_RUNS_ON(client) void Go(Loop& loop, Site& site) {
    loop.Post([&site] { site.Crash(); });
  }
};
)"}});
  EXPECT_EQ(CountRule(findings, "cross-context-call"), 0);
}

TEST(BlockingTest, LambdaBodyIsFollowedForBlockingCalls) {
  // The opposite asymmetry: a timer callback runs on the loop, so a sleep
  // inside a lambda handed to the runtime IS reachable from the loop entry.
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
void sleep_for(int ms);
class Runtime {
 public:
  template <typename F>
  MR_RUNS_ON(any) void ScheduleAfter(int ms, F fn);
};
class Site {
 public:
  MR_RUNS_ON(loop) void Arm(Runtime& rt) {
    rt.ScheduleAfter(5, [] { sleep_for(10); });
  }
};
)"}});
  EXPECT_EQ(CountRule(findings, "blocking-call"), 1);
}

TEST(BlockingTest, EpollWaitsAndAcceptFourAreBlocking) {
  // An fd-driven loop sleeps in one of the epoll waits; each is a blocking
  // call anywhere but the loop's own waived idle wait.
  auto findings = Analyze({{"src/net/x.cc", std::string(kPreamble) + R"(
int epoll_wait(int epfd, void* events, int max, int timeout_ms);
int epoll_pwait(int epfd, void* events, int max, int timeout_ms,
                const void* sigmask);
int epoll_pwait2(int epfd, void* events, int max, const void* timeout,
                 const void* sigmask);
int accept4(int fd, void* addr, void* len, int flags);
class Loop {
 public:
  MR_RUNS_ON(loop) void A(int fd) { epoll_wait(fd, nullptr, 1, -1); }
  MR_RUNS_ON(loop) void B(int fd) { epoll_pwait(fd, nullptr, 1, -1, nullptr); }
  MR_RUNS_ON(any) void C(int fd) {
    epoll_pwait2(fd, nullptr, 1, nullptr, nullptr);
  }
  MR_RUNS_ON(loop) void D(int fd) { accept4(fd, nullptr, nullptr, 0); }
  MR_RUNS_ON(loop) void Idle(int fd) {
    // miniraid-lint: allow(blocking-call)
    epoll_pwait2(fd, nullptr, 1, nullptr, nullptr);
  }
};
)"}});
  EXPECT_EQ(CountRule(findings, "blocking-call"), 4);
  EXPECT_EQ(CountRule(findings, "blocking-call", true), 5);
}

TEST(BlockingTest, ClientContextMayBlock) {
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
void sleep_for(int ms);
class Driver {
 public:
  MR_RUNS_ON(client) void Poll() { sleep_for(1); }
};
)"}});
  EXPECT_EQ(CountRule(findings, "blocking-call"), 0);
}

TEST(BlockingTest, AnnotatedCalleeReanchorsTraversal) {
  // An annotated callee is its own verification root: traversal must stop
  // at the contract boundary, so the sleep inside the any-context helper is
  // reported exactly once (from the helper's own root), not re-reported
  // from every caller that reaches it.
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
void sleep_for(int ms);
class Rt {
 public:
  MR_RUNS_ON(any) void Nap() { sleep_for(1); }
};
class Site {
 public:
  MR_RUNS_ON(loop) void Tick(Rt& rt) { rt.Nap(); }
};
)"}});
  EXPECT_EQ(CountRule(findings, "blocking-call"), 1);
}

// ---------------------------------------------------------------------------
// Regression: no implicit base->override context inheritance.
// ---------------------------------------------------------------------------

TEST(ConfinementTest, OverridesDoNotInheritBaseContext) {
  // SimCluster regression: the simulator collapses every context onto one
  // thread, so its overrides are deliberately unannotated. Propagating the
  // base method's client context into the override produced false
  // cross-context findings against the simulator internals.
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class Site {
 public:
  MR_RUNS_ON(loop) void Step();
};
class Cluster {
 public:
  MR_RUNS_ON(client) virtual void Drive() = 0;
};
class SimCluster : public Cluster {
 public:
  void Drive() override { site_.Step(); }
 private:
  Site site_;
};
)"}});
  EXPECT_EQ(CountRule(findings, "cross-context-call"), 0);
}

TEST(ConfinementTest, UnannotatedVirtualFansOutToOverrides) {
  // But when the BASE method is unannotated, a call through it must still
  // fan out to derived overrides so annotated implementations are checked.
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class Site {
 public:
  MR_RUNS_ON(loop) void Step();
};
class Backend {
 public:
  virtual void Run(Site& s) = 0;
};
class RealBackend : public Backend {
 public:
  MR_RUNS_ON(loop) void Run(Site& s) override { s.Step(); }
};
class Driver {
 public:
  MR_RUNS_ON(client) void Go(Backend& b, Site& s) { b.Run(s); }
};
)"}});
  // Driver::Go (client) -> Backend::Run fans out to RealBackend::Run, which
  // is a loop-confined contract: one finding at the fan-out edge.
  EXPECT_EQ(CountRule(findings, "cross-context-call"), 1);
}

// ---------------------------------------------------------------------------
// Coverage.
// ---------------------------------------------------------------------------

TEST(CoverageTest, FlagsUnannotatedPublicMethodOfAnnotatedClass) {
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class SubmitWindow {
 public:
  MR_RUNS_ON(client) void Submit(int txn);
  void Close();
};
)"}});
  EXPECT_EQ(CountRule(findings, "context-coverage"), 1);
}

TEST(CoverageTest, UnannotatedClassesAndSpecialMembersAreExempt) {
  auto findings = Analyze({{"src/core/x.cc", std::string(kPreamble) + R"(
class Unaware {
 public:
  void Anything();
};
class SubmitWindow {
 public:
  SubmitWindow();
  ~SubmitWindow();
  bool operator==(const SubmitWindow& o) const;
  MR_RUNS_ON(client) void Submit(int txn);
 private:
  void Track(int txn);
};
)"}});
  EXPECT_EQ(CountRule(findings, "context-coverage"), 0);
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

TEST(SuppressionTest, AllowCommentCoversOwnAndNextLine) {
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class FailLockTable {
 public:
  void Set(int from, int to);
};
void Tamper(FailLockTable& t) {
  // miniraid-lint: allow(fail-lock-mutation)
  t.Set(1, 2);
}
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 0);
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation", true), 1);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "fail-lock-mutation"; });
  ASSERT_NE(it, findings.end());
  EXPECT_TRUE(it->suppressed);
}

TEST(SuppressionTest, AllowForDifferentRuleDoesNotSuppress) {
  auto findings = Analyze({{"src/core/recovery_helper.cc", R"(
class FailLockTable {
 public:
  void Set(int from, int to);
};
void Tamper(FailLockTable& t) {
  // miniraid-lint: allow(blocking-call)
  t.Set(1, 2);
}
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 1);
}

// ---------------------------------------------------------------------------
// Dispatch exhaustiveness.
// ---------------------------------------------------------------------------

TEST(DispatchTest, DefaultlessDispatchSwitchMustBeExhaustive) {
  auto findings = Analyze({{"src/core/x.cc", R"(
enum class MsgType : unsigned char { kPrepare, kCommit };
class Site {
 public:
  void OnMessage(MsgType t) {
    switch (t) {
      case MsgType::kPrepare:
        break;
      case MsgType::kCommit:
        break;
    }
  }
};
)"}});
  EXPECT_EQ(CountRule(findings, "msg-dispatch"), 0);
}

TEST(DispatchTest, MissingCaseAndUnhandledEnumeratorBothReport) {
  auto findings = Analyze({{"src/core/x.cc", R"(
enum class MsgType : unsigned char { kPrepare, kCommit };
class Site {
 public:
  void OnMessage(MsgType t) {
    switch (t) {
      case MsgType::kPrepare:
        break;
    }
  }
};
)"}});
  // One finding at the switch (missing kCommit) and one at the enum
  // (kCommit handled by no dispatcher anywhere).
  EXPECT_EQ(CountRule(findings, "msg-dispatch"), 2);
}

// ---------------------------------------------------------------------------
// Codec symmetry, incl. the decode-sequence file-attribution regression.
// ---------------------------------------------------------------------------

TEST(CodecTest, CountMismatchReportsAtDecoderCaseInDecoderFile) {
  // Regression: with the encoder and decoder in different files, the
  // finding must carry the decoder's file, not the file that happened to
  // hold the last-indexed function.
  auto findings = Analyze(
      {{"src/net/encode.cc", R"(
enum class MsgType : unsigned char { kPing };
struct PingArgs { unsigned long long seq; unsigned char hop; };
class Encoder {
 public:
  void PutU8(unsigned char v);
  void PutU64(unsigned long long v);
};
struct PayloadEncoder {
  Encoder& enc;
  void operator()(const PingArgs& a) {
    enc.PutU64(a.seq);
    enc.PutU8(a.hop);
  }
};
class Site {
 public:
  void OnMessage(MsgType t) {
    switch (t) {
      case MsgType::kPing:
        break;
    }
  }
};
)"},
       {"src/net/decode.cc", R"(
enum class MsgType : unsigned char { kPing };
class Decoder {
 public:
  bool GetU64(unsigned long long* v);
};
bool DecodePayload(Decoder& dec, MsgType type) {
  switch (type) {
    case MsgType::kPing: {
      unsigned long long seq = 0;
      return dec.GetU64(&seq);
    }
  }
  return false;
}
)"}});
  ASSERT_EQ(CountRule(findings, "codec-symmetry"), 1);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "codec-symmetry"; });
  EXPECT_EQ(it->file, "src/net/decode.cc");
}

TEST(CodecTest, SymmetricCodecIsClean) {
  auto findings = Analyze({{"src/net/codec.cc", R"(
enum class MsgType : unsigned char { kPing };
struct PingArgs { unsigned long long seq; };
class Encoder {
 public:
  void PutU64(unsigned long long v);
};
class Decoder {
 public:
  bool GetU64(unsigned long long* v);
};
struct PayloadEncoder {
  Encoder& enc;
  void operator()(const PingArgs& a) { enc.PutU64(a.seq); }
};
bool DecodePayload(Decoder& dec, MsgType type) {
  switch (type) {
    case MsgType::kPing: {
      unsigned long long seq = 0;
      return dec.GetU64(&seq);
    }
  }
  return false;
}
class Site {
 public:
  void OnMessage(MsgType t) {
    switch (t) {
      case MsgType::kPing:
        break;
    }
  }
};
)"}});
  EXPECT_EQ(CountRule(findings, "codec-symmetry"), 0);
}

// ---------------------------------------------------------------------------
// Lock-order pass.
// ---------------------------------------------------------------------------

// Capability macro preamble for the lock-order sources; the indexer keys
// off the MR_* spellings, the expansions are irrelevant.
constexpr char kLockPreamble[] = R"(
#define MR_CAPABILITY(x)
#define MR_SCOPED_CAPABILITY
#define MR_ACQUIRE(...)
#define MR_RELEASE(...)
#define MR_ACQUIRED_BEFORE(...)
class MR_CAPABILITY("mutex") Mutex {
 public:
  void Lock() MR_ACQUIRE();
  void Unlock() MR_RELEASE();
};
class MR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MR_ACQUIRE(mu);
  ~MutexLock() MR_RELEASE();
};
)";

std::vector<Finding> AnalyzeWithGraph(
    const std::vector<std::pair<std::string, std::string>>& sources,
    LockGraph* graph) {
  Model model = BuildModel(sources);
  CheckOptions opts = CheckOptions::Defaults();
  std::vector<Finding> findings = RunChecks(model, opts);
  *graph = BuildLockGraph(model, opts, &findings);
  ApplySuppressions(model, &findings);
  return findings;
}

TEST(LockOrderTest, SeededDeclaredCycleIsDetected) {
  LockGraph graph;
  auto findings =
      AnalyzeWithGraph({{"src/core/x.cc", std::string(kLockPreamble) + R"(
class Cyclic {
 private:
  Mutex a_ MR_ACQUIRED_BEFORE(b_);
  Mutex b_ MR_ACQUIRED_BEFORE(a_);
};
)"}}, &graph);
  ASSERT_EQ(CountRule(findings, "lock-order"), 1);
  for (const Finding& f : findings) {
    if (f.rule == "lock-order") {
      EXPECT_NE(f.message.find("cycle"), std::string::npos) << f.message;
    }
  }
}

TEST(LockOrderTest, InterproceduralInversionContradictsDeclaredOrder) {
  LockGraph graph;
  auto findings =
      AnalyzeWithGraph({{"src/core/x.cc", std::string(kLockPreamble) + R"(
class Engine {
 public:
  void Helper() { MutexLock lock(outer_); }
  void Run() {
    MutexLock lock(inner_);
    Helper();
  }
 private:
  Mutex outer_ MR_ACQUIRED_BEFORE(inner_);
  Mutex inner_;
};
)"}}, &graph);
  EXPECT_EQ(CountRule(findings, "lock-order"), 1);
  bool observed_inversion = false;
  for (const LockGraph::Edge& e : graph.edges) {
    if (e.kind == "observed" && e.from == "Engine::inner_" &&
        e.to == "Engine::outer_") {
      observed_inversion = true;
      EXPECT_EQ(e.via, "Engine::Helper");
    }
  }
  EXPECT_TRUE(observed_inversion);
}

TEST(LockOrderTest, DeclaredOrderSilencesObservedEdgeButKeepsItInGraph) {
  LockGraph graph;
  auto findings =
      AnalyzeWithGraph({{"src/core/x.cc", std::string(kLockPreamble) + R"(
class Engine {
 public:
  void Nested() {
    MutexLock lock(outer_);
    MutexLock inner_lock(inner_);
  }
 private:
  Mutex outer_ MR_ACQUIRED_BEFORE(inner_);
  Mutex inner_;
};
)"}}, &graph);
  EXPECT_EQ(CountRule(findings, "lock-order"), 0);
  int declared = 0, observed = 0;
  for (const LockGraph::Edge& e : graph.edges) {
    if (e.kind == "declared") ++declared;
    if (e.kind == "observed") ++observed;
  }
  EXPECT_EQ(declared, 1);
  EXPECT_EQ(observed, 1);
}

// ---------------------------------------------------------------------------
// Protocol-effect pass.
// ---------------------------------------------------------------------------

constexpr char kDispatchSource[] = R"(
enum class MsgType { kPing, kStop };
struct PingArgs { unsigned from; };
struct PongArgs { unsigned from; };
struct ExtraArgs { unsigned from; };
struct Message { MsgType type; unsigned from; };
class Site {
 public:
  void OnMessage(const Message& msg) {
    switch (msg.type) {
      case MsgType::kPing:
        SendTo(msg.from, %PAYLOAD%{0});
        break;
      case MsgType::kStop:
        break;
    }
  }
 private:
  void SendTo(unsigned to, %PAYLOAD% args);
};
)";

std::string DispatchSourceSending(const std::string& payload) {
  std::string src = kDispatchSource;
  std::string::size_type pos;
  while ((pos = src.find("%PAYLOAD%")) != std::string::npos) {
    src.replace(pos, 9, payload);
  }
  return src;
}

TEST(ProtocolEffectTest, ComputesHandlerSummariesFromDispatchCases) {
  Model model = BuildModel({{"src/core/x.cc", DispatchSourceSending("PongArgs")}});
  EffectMap map = BuildEffectMap(model, CheckOptions::Defaults());
  ASSERT_EQ(map.handlers.size(), 2u);
  EXPECT_EQ(map.handlers["kPing"], std::set<std::string>{"send:kPong"});
  EXPECT_TRUE(map.handlers["kStop"].empty());
}

TEST(ProtocolEffectTest, SeededDriftAgainstGoldenIsDetected) {
  Model model = BuildModel({{"src/core/x.cc", DispatchSourceSending("ExtraArgs")}});
  EffectMap map = BuildEffectMap(model, CheckOptions::Defaults());
  std::vector<Finding> findings;
  DiffEffectsAgainstGolden(map, "kPing: send:kPong\nkStop: -\n", &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-effect");
  EXPECT_NE(findings[0].message.find("send:kExtra"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("send:kPong"), std::string::npos)
      << findings[0].message;
}

TEST(ProtocolEffectTest, MatchingGoldenAndCommentsProduceNoFindings) {
  Model model = BuildModel({{"src/core/x.cc", DispatchSourceSending("PongArgs")}});
  EffectMap map = BuildEffectMap(model, CheckOptions::Defaults());
  std::vector<Finding> findings;
  DiffEffectsAgainstGolden(
      map, "# comment\nkPing: send:kPong  # trailing\n\nkStop: -\n",
      &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(ProtocolEffectTest, GoldenHandlerWithoutDispatchCaseReports) {
  Model model = BuildModel({{"src/core/x.cc", DispatchSourceSending("PongArgs")}});
  EffectMap map = BuildEffectMap(model, CheckOptions::Defaults());
  std::vector<Finding> findings;
  DiffEffectsAgainstGolden(
      map, "kPing: send:kPong\nkStop: -\nkRetired: send:kPong\n", &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kRetired"), std::string::npos);
  EXPECT_NE(findings[0].message.find("no dispatch case"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared-state pass (guarded-by inference).
// ---------------------------------------------------------------------------

// Context + capability macro preamble for the dataflow sources, with an
// EventLoop whose Post the default options treat as a deferred loop sink.
constexpr char kDataflowPreamble[] = R"(
#define MR_RUNS_ON(ctx)
#define MR_CONTEXT_CONFINED(ctx)
#define MR_GUARDED_BY(x)
#define MR_CAPABILITY(x)
#define MR_SCOPED_CAPABILITY
#define MR_ACQUIRE(...)
#define MR_RELEASE(...)
class MR_CAPABILITY("mutex") Mutex {
 public:
  void Lock() MR_ACQUIRE();
  void Unlock() MR_RELEASE();
};
class MR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MR_ACQUIRE(mu);
  ~MutexLock() MR_RELEASE();
};
class EventLoop {
 public:
  void Post(Task fn);
  void PostAndWait(Task fn);
};
)";

SharedStateReport AnalyzeShared(
    const std::vector<std::pair<std::string, std::string>>& sources,
    std::vector<Finding>* findings) {
  Model model = BuildModel(sources);
  SharedStateReport report =
      BuildSharedStateReport(model, CheckOptions::Defaults(), findings);
  ApplySuppressions(model, findings);
  return report;
}

const SharedStateReport::Field* FieldVerdict(const SharedStateReport& report,
                                             const std::string& cls,
                                             const std::string& field) {
  for (const SharedStateReport::Field& f : report.fields) {
    if (f.cls == cls && f.field == field) return &f;
  }
  return nullptr;
}

TEST(SharedStateTest, ContextInferenceThroughVirtualsFlagsRace) {
  // Tick() is annotated only on the base; the override inherits the loop
  // contract as its seed. The managing-side writer then makes hits_
  // reachable from two contexts with no common mutex.
  std::vector<Finding> findings;
  auto report =
      AnalyzeShared({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Handler {
 public:
  MR_RUNS_ON(loop) virtual void Tick() {}
};
class Counter : public Handler {
 public:
  void Tick() override { hits_ = hits_ + 1; }
  MR_RUNS_ON(managing) void Reset() { hits_ = 0; }
 private:
  int hits_ = 0;
};
)"}}, &findings);
  EXPECT_EQ(CountRule(findings, "shared-state"), 1);
  const auto* f = FieldVerdict(report, "Counter", "hits_");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, "race");
  EXPECT_TRUE(f->contexts.count("loop"));
  EXPECT_TRUE(f->contexts.count("managing"));
}

TEST(SharedStateTest, LambdaPostedToLoopRunsOnSinkContext) {
  // The access inside the posted lambda happens on the loop, not on the
  // managing context that created it — two contexts, no guard, race.
  std::vector<Finding> findings;
  auto report =
      AnalyzeShared({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Publisher {
 public:
  MR_RUNS_ON(managing) void Publish() {
    seq_ = seq_ + 1;
    loop_->Post([this] { seq_ = seq_ + 1; });
  }
 private:
  EventLoop* loop_;
  int seq_ = 0;
};
)"}}, &findings);
  EXPECT_EQ(CountRule(findings, "shared-state"), 1);
  const auto* f = FieldVerdict(report, "Publisher", "seq_");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, "race");
  EXPECT_TRUE(f->contexts.count("loop"));
  EXPECT_TRUE(f->contexts.count("managing"));
}

TEST(SharedStateTest, GuardDisagreementBetweenAnnotationAndLocking) {
  std::vector<Finding> findings;
  auto report =
      AnalyzeShared({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Ledger {
 public:
  MR_RUNS_ON(managing) void Add() {
    MutexLock lock(mu_b_);
    count_ = count_ + 1;
  }
 private:
  Mutex mu_a_;
  Mutex mu_b_;
  int count_ MR_GUARDED_BY(mu_a_) = 0;
};
)"}}, &findings);
  ASSERT_EQ(CountRule(findings, "shared-state"), 1);
  const auto* f = FieldVerdict(report, "Ledger", "count_");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, "guard-disagreement");
  EXPECT_EQ(f->declared_guard, "Ledger::mu_a_");
  for (const Finding& fd : findings) {
    if (fd.rule == "shared-state") {
      EXPECT_NE(fd.message.find("disagree"), std::string::npos) << fd.message;
    }
  }
}

TEST(SharedStateTest, ContextConfinedWaiverSilencesMultiContextField) {
  std::vector<Finding> findings;
  auto report =
      AnalyzeShared({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Config {
 public:
  MR_RUNS_ON(client) void Load() { revision_ = revision_ + 1; }
  MR_RUNS_ON(loop) int Revision() { return revision_; }
 private:
  int revision_ MR_CONTEXT_CONFINED(client) = 0;
};
)"}}, &findings);
  EXPECT_EQ(CountRule(findings, "shared-state"), 0);
  const auto* f = FieldVerdict(report, "Config", "revision_");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, "confined");
  EXPECT_EQ(f->waiver, "client");
}

TEST(SharedStateTest, CommonHeldMutexAcrossContextsInfersGuarded) {
  std::vector<Finding> findings;
  auto report =
      AnalyzeShared({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Tally {
 public:
  MR_RUNS_ON(managing) void Bump() {
    MutexLock lock(mu_);
    hits_ = hits_ + 1;
  }
  MR_RUNS_ON(loop) int Snapshot() {
    MutexLock lock(mu_);
    return hits_;
  }
 private:
  Mutex mu_;
  int hits_ = 0;
};
)"}}, &findings);
  EXPECT_EQ(CountRule(findings, "shared-state"), 0);
  const auto* f = FieldVerdict(report, "Tally", "hits_");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, "guarded");
  EXPECT_TRUE(f->common_guards.count("Tally::mu_"));
}

TEST(SharedStateTest, JsonReportIsDeterministicAcrossRuns) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Counter {
 public:
  MR_RUNS_ON(loop) void Tick() { a_ = a_ + 1; b_ = b_ + 1; }
 private:
  int a_ = 0;
  int b_ = 0;
};
)"}};
  std::vector<Finding> f1, f2;
  std::ostringstream os1, os2;
  WriteSharedStateJson(AnalyzeShared(sources, &f1), os1);
  WriteSharedStateJson(AnalyzeShared(sources, &f2), os2);
  EXPECT_FALSE(os1.str().empty());
  EXPECT_EQ(os1.str(), os2.str());
}

// ---------------------------------------------------------------------------
// View-escape pass (buffer-lifetime analysis).
// ---------------------------------------------------------------------------

std::vector<Finding> AnalyzeViews(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Model model = BuildModel(sources);
  std::vector<Finding> findings;
  CheckViewEscape(model, CheckOptions::Defaults(), &findings);
  ApplySuppressions(model, &findings);
  return findings;
}

TEST(ViewEscapeTest, ViewOfLocalBufferStoredInFieldIsFlagged) {
  auto findings = AnalyzeViews({{"src/core/x.cc", R"(
class Parser {
 public:
  void Parse() {
    std::string frame = Fetch();
    std::string_view view(frame);
    view_ = view;
  }
 private:
  std::string Fetch();
  std::string_view view_;
};
)"}});
  ASSERT_EQ(CountRule(findings, "view-escape"), 1);
  EXPECT_NE(findings[0].message.find("view_"), std::string::npos);
}

TEST(ViewEscapeTest, MemberArenaViewStoredInFieldIsClean) {
  auto findings = AnalyzeViews({{"src/core/x.cc", R"(
class Arena {
 public:
  void Reindex() {
    std::string_view view(buf_);
    view_ = view;
  }
 private:
  std::string buf_;
  std::string_view view_;
};
)"}});
  EXPECT_EQ(CountRule(findings, "view-escape"), 0);
}

TEST(ViewEscapeTest, PointerIntoLocalBufferReturnedIsFlagged) {
  auto findings = AnalyzeViews({{"src/core/x.cc", R"(
class Renderer {
 public:
  const char* Render() {
    std::string scratch = Build();
    return scratch.c_str();
  }
 private:
  std::string Build();
};
)"}});
  ASSERT_EQ(CountRule(findings, "view-escape"), 1);
  EXPECT_NE(findings[0].message.find("scratch"), std::string::npos);
}

TEST(ViewEscapeTest, ByRefCaptureIntoDeferredPostIsFlagged) {
  auto findings =
      AnalyzeViews({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Worker {
 public:
  void Go() {
    int n = 0;
    loop_->Post([&n] { n = 1; });
  }
 private:
  EventLoop* loop_;
};
)"}});
  ASSERT_EQ(CountRule(findings, "view-escape"), 1);
  EXPECT_NE(findings[0].message.find("'n'"), std::string::npos);
}

TEST(ViewEscapeTest, PostAndWaitStackCaptureIsAllowed) {
  // The PR 8 regression pair: PostAndWait completes before the frame
  // returns, so the same capture that is a defect through Post is the
  // intended synchronous-handoff idiom through PostAndWait.
  auto findings =
      AnalyzeViews({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
class Collector {
 public:
  int Sample() {
    int total = 0;
    loop_->PostAndWait([&total] { total = total + 1; });
    return total;
  }
 private:
  EventLoop* loop_;
};
)"}});
  EXPECT_EQ(CountRule(findings, "view-escape"), 0);
}

TEST(ViewEscapeTest, ViewInsertedIntoMemberContainerIsFlagged) {
  auto findings = AnalyzeViews({{"src/core/x.cc", R"(
class Splitter {
 public:
  void Split() {
    std::string line = Next();
    std::string_view token(line);
    parts_.push_back(token);
  }
 private:
  std::string Next();
  std::vector<std::string_view> parts_;
};
)"}});
  ASSERT_EQ(CountRule(findings, "view-escape"), 1);
  EXPECT_NE(findings[0].message.find("parts_"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF output.
// ---------------------------------------------------------------------------

TEST(SarifTest, EmitsUnsuppressedFindingsWithRuleAndLocation) {
  std::vector<Finding> findings;
  Finding a;
  a.rule = "view-escape";
  a.file = "src/core/x.cc";
  a.line = 7;
  a.message = "dangling view";
  findings.push_back(a);
  Finding b;
  b.rule = "shared-state";
  b.file = "src/core/y.cc";
  b.line = 0;  // must clamp to startLine >= 1
  b.message = "race";
  findings.push_back(b);
  Finding c = a;
  c.suppressed = true;  // must be omitted
  c.message = "suppressed defect";
  findings.push_back(c);

  std::ostringstream os;
  WriteSarif(findings, os);
  const std::string sarif = os.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"miniraid-analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"shared-state\"}"), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"view-escape\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"view-escape\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_EQ(sarif.find("suppressed defect"), std::string::npos);
}

}  // namespace
}  // namespace analyze
}  // namespace miniraid

// Tests for miniraid-analyze, all through the one Analyze() pipeline the
// CLI runs.
//
// The unit tests drive inline sources and pin behaviours a fixture file
// cannot express on its own: receiver-type resolution through aliases and
// accessor chains, the lambda asymmetry between the confinement and blocking
// passes, no implicit base->override context inheritance, and the path
// scoping of the per-file rules. The fixture suite then holds every rule to
// its testdata/<rule>/{bad,good,suppressed}.cc contract, and the last test
// runs the per-file rules over the real src/ tree. tests/CMakeLists.txt
// also registers these groups as ctest entries of their own.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer.h"

namespace miniraid {
namespace analyze {
namespace {

Analysis AnalyzeSources(const std::vector<Source>& sources,
                        const std::string& effects_golden = "") {
  CheckOptions opts = CheckOptions::Defaults();
  opts.effects_golden = effects_golden;
  return Analyze(sources, opts);
}

std::vector<Finding> FindingsOf(const std::vector<Source>& sources) {
  return AnalyzeSources(sources).findings;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule,
              bool include_suppressed = false) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule && (include_suppressed || !f.suppressed)) ++n;
  }
  return n;
}

// The first finding of `rule`; a test failure when there is none.
Finding FirstOf(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return f;
  }
  ADD_FAILURE() << "no " << rule << " finding";
  return Finding{};
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
class Bitmap {
 public:
  void Set(int bit, bool value);
};
void Flip(Bitmap& b) { b.Set(7, true); }
)"}});
  EXPECT_EQ(CountRule(findings, "fail-lock-mutation"), 0);
}

TEST(OwnershipTest, MutationInHomeFileIsAllowed) {
  auto findings = FindingsOf({{"src/core/site.cc", R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/net/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
class SubmitWindow {
 public:
  MR_RUNS_ON(client) void Submit(int txn);
  void Close();
};
)"}});
  EXPECT_EQ(CountRule(findings, "context-coverage"), 1);
}

TEST(CoverageTest, UnannotatedClassesAndSpecialMembersAreExempt) {
  auto findings = FindingsOf({{"src/core/x.cc", std::string(kPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
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
  auto findings = FindingsOf({{"src/core/recovery_helper.cc", R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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

std::vector<Finding> AnalyzeWithGraph(const std::vector<Source>& sources,
                                      LockGraph* graph) {
  Analysis analysis = AnalyzeSources(sources);
  *graph = std::move(analysis.lock_graph);
  return analysis.findings;
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

std::vector<Source> DispatchSending(const std::string& payload) {
  std::string src = kDispatchSource;
  std::string::size_type pos;
  while ((pos = src.find("%PAYLOAD%")) != std::string::npos) {
    src.replace(pos, 9, payload);
  }
  return {{"src/core/x.cc", src}};
}

TEST(ProtocolEffectTest, ComputesHandlerSummariesFromDispatchCases) {
  EffectMap map = AnalyzeSources(DispatchSending("PongArgs")).effects;
  ASSERT_EQ(map.handlers.size(), 2u);
  EXPECT_EQ(map.handlers["kPing"], std::set<std::string>{"send:kPong"});
  EXPECT_TRUE(map.handlers["kStop"].empty());
}

TEST(ProtocolEffectTest, SeededDriftAgainstGoldenIsDetected) {
  auto findings = AnalyzeSources(DispatchSending("ExtraArgs"),
                                 "kPing: send:kPong\nkStop: -\n")
                      .findings;
  ASSERT_EQ(CountRule(findings, "protocol-effect"), 1);
  const Finding drift = FirstOf(findings, "protocol-effect");
  EXPECT_NE(drift.message.find("send:kExtra"), std::string::npos)
      << drift.message;
  EXPECT_NE(drift.message.find("send:kPong"), std::string::npos)
      << drift.message;
}

TEST(ProtocolEffectTest, MatchingGoldenAndCommentsProduceNoFindings) {
  auto findings =
      AnalyzeSources(DispatchSending("PongArgs"),
                     "# comment\nkPing: send:kPong  # trailing\n\nkStop: -\n")
          .findings;
  EXPECT_TRUE(findings.empty());
}

TEST(ProtocolEffectTest, GoldenHandlerWithoutDispatchCaseReports) {
  auto findings =
      AnalyzeSources(DispatchSending("PongArgs"),
                     "kPing: send:kPong\nkStop: -\nkRetired: send:kPong\n")
          .findings;
  ASSERT_EQ(CountRule(findings, "protocol-effect"), 1);
  const Finding stale = FirstOf(findings, "protocol-effect");
  EXPECT_NE(stale.message.find("kRetired"), std::string::npos);
  EXPECT_NE(stale.message.find("no dispatch case"), std::string::npos);
}

// `--effects out.txt` writes FormatEffectMap's output, so regenerating the
// golden that way must reproduce the checked-in file, header included.
TEST(ProtocolEffectTest, CheckedInGoldenFormatsBackByteForByte) {
  std::ifstream in(MINIRAID_EFFECTS_GOLDEN);
  ASSERT_TRUE(in) << "cannot read " << MINIRAID_EFFECTS_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  EffectMap map;
  map.handlers = ParseEffectGolden(golden.str());
  ASSERT_GE(map.handlers.size(), 20u);
  EXPECT_EQ(FormatEffectMap(map), golden.str());
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

SharedStateReport AnalyzeShared(const std::vector<Source>& sources,
                                std::vector<Finding>* findings) {
  Analysis analysis = AnalyzeSources(sources);
  *findings = std::move(analysis.findings);
  return std::move(analysis.shared_state);
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

// ---------------------------------------------------------------------------
// View-escape pass (buffer-lifetime analysis).
// ---------------------------------------------------------------------------

TEST(ViewEscapeTest, ViewOfLocalBufferStoredInFieldIsFlagged) {
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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
  EXPECT_NE(FirstOf(findings, "view-escape").message.find("view_"),
            std::string::npos);
}

TEST(ViewEscapeTest, MemberArenaViewStoredInFieldIsClean) {
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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
  EXPECT_NE(FirstOf(findings, "view-escape").message.find("scratch"),
            std::string::npos);
}

TEST(ViewEscapeTest, ByRefCaptureIntoDeferredPostIsFlagged) {
  auto findings =
      FindingsOf({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
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
  EXPECT_NE(FirstOf(findings, "view-escape").message.find("'n'"),
            std::string::npos);
}

TEST(ViewEscapeTest, PostAndWaitStackCaptureIsAllowed) {
  // The PR 8 regression pair: PostAndWait completes before the frame
  // returns, so the same capture that is a defect through Post is the
  // intended synchronous-handoff idiom through PostAndWait.
  auto findings =
      FindingsOf({{"src/core/x.cc", std::string(kDataflowPreamble) + R"(
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
  auto findings = FindingsOf({{"src/core/x.cc", R"(
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
  EXPECT_NE(FirstOf(findings, "view-escape").message.find("parts_"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-file rules: path scoping, the cases a fixture under one virtual path
// cannot show.
// ---------------------------------------------------------------------------

struct FileRuleCase {
  const char* path;
  const char* source;
  const char* rule;  // the one rule expected to fire; nullptr = clean
};

const FileRuleCase kFileRuleCases[] = {
    {"src/net/bad_guard.cc",
     "void F() { std::lock_guard<std::mutex> lock(mu_); }\n", "raw-mutex"},
    {"src/common/mutex_impl.cc", "static std::mutex m;\n", nullptr},
    {"tests/helper.cc", "static std::mutex m;\n", nullptr},
    {"src/core/bad_callback.cc",
     "void F() {\n  MutexLock lock(mu_);\n  callback(reply);\n}\n",
     "callback-under-lock"},
    {"src/txn/good_callback.cc", "void F() { callback(reply); }\n", nullptr},
    {"src/replication/not_in_scope.cc",
     "void F() {\n  MutexLock lock(mu_);\n  callback(reply);\n}\n", nullptr},
    {"src/net/bad_sideways.cc", "#include \"storage/wal.h\"\n", "layering"},
    {"src/core/bad_check_dep.cc", "#include \"check/abstract_model.h\"\n",
     "layering"},
    {"src/core/good_own.cc", "#include \"core/invariants.h\"\n", nullptr},
    {"src/txn/driver.cc",
     "#include \"core/cluster_api.h\"\n#include \"txn/transaction.h\"\n",
     nullptr},
    {"src/txn/bad_driver_dep.cc", "#include \"txn/driver.h\"\n", "layering"},
    {"/checkout/src/core/bad_guard_name.h",
     "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n", "header-guard"},
    {"src/core/late_guard.h",
     "#include <string>\n#ifndef MINIRAID_CORE_LATE_GUARD_H_\n"
     "#define MINIRAID_CORE_LATE_GUARD_H_\n#endif\n",
     "header-guard"},
};

TEST(FileRulesTest, EachCaseFiresOnlyItsRuleAndAllowSilencesIt) {
  for (const FileRuleCase& c : kFileRuleCases) {
    SCOPED_TRACE(c.path);
    const std::vector<Finding> findings = FindingsOf({{c.path, c.source}});
    if (c.rule == nullptr) {
      EXPECT_TRUE(findings.empty()) << findings.front().rule;
      continue;
    }
    ASSERT_FALSE(findings.empty());
    // The allow() comment is part of the contract: appended to each line
    // that fired, it must silence every finding.
    std::vector<std::string> lines;
    std::istringstream in(c.source);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, c.rule) << f.message;
      ASSERT_TRUE(f.line >= 1 && static_cast<size_t>(f.line) <= lines.size());
      lines[f.line - 1] += std::string("  // miniraid-lint: allow(") + c.rule +
                           ")";
    }
    std::string allowed;
    for (const std::string& line : lines) allowed += line + "\n";
    const std::vector<Finding> silenced = FindingsOf({{c.path, allowed}});
    EXPECT_EQ(CountRule(silenced, c.rule), 0) << allowed;
    EXPECT_EQ(CountRule(silenced, c.rule, true), CountRule(findings, c.rule));
  }
}

// ---------------------------------------------------------------------------
// Fixture contract: every rule ships testdata/<rule>/{bad,good,suppressed}.cc.
//   bad.cc        fires the rule, unsuppressed, and no other rule
//   good.cc       yields no finding at all, suppressed or not
//   suppressed.cc yields a suppressed finding of the rule (the check still
//                 sees the defect; the allow() comment silences it) and no
//                 unsuppressed finding
// ---------------------------------------------------------------------------

struct RuleFixture {
  const char* rule;
  // Where the fixture is lexed. The per-file rules key on the path, so
  // their fixtures take a virtual src/<component>/ one; the others keep
  // testdata/<rule>/, outside src/, where the per-file rules stay silent.
  const char* dir;
  const char* ext;
};

// The whole-program passes (instantiated as Passes/RuleFixtureTest).
const RuleFixture kPassFixtures[] = {
    {"cross-context-call", nullptr, ".cc"},
    {"context-coverage", nullptr, ".cc"},
    {"blocking-call", nullptr, ".cc"},
    {"fail-lock-mutation", nullptr, ".cc"},
    {"session-mutation", nullptr, ".cc"},
    {"msg-dispatch", nullptr, ".cc"},
    {"lock-order", nullptr, ".cc"},
    {"protocol-effect", nullptr, ".cc"},
    {"shared-state", nullptr, ".cc"},
    {"view-escape", nullptr, ".cc"},
};

// The per-file rules (instantiated as FileRules/RuleFixtureTest).
const RuleFixture kFileRuleFixtures[] = {
    {"raw-mutex", "src/core/", ".cc"},
    {"callback-under-lock", "src/net/", ".cc"},
    {"layering", "src/replication/", ".cc"},
    {"header-guard", "src/core/", ".h"},
};

template <size_t N>
bool HasRule(const RuleFixture (&fixtures)[N], const std::string& rule) {
  return std::any_of(std::begin(fixtures), std::end(fixtures),
                     [&rule](const RuleFixture& f) { return rule == f.rule; });
}

void PrintTo(const RuleFixture& fixture, std::ostream* os) {
  *os << fixture.rule;
}

bool ReadFile(const std::string& path, std::string* content) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *content = buf.str();
  return true;
}

bool ReadTestdata(const std::string& rel, std::string* content) {
  return ReadFile(std::string(MINIRAID_ANALYZE_TESTDATA) + "/" + rel, content);
}

std::vector<Finding> RunFixture(const RuleFixture& fixture,
                                const std::string& kind) {
  const std::string rule = fixture.rule;
  Source source;
  source.path = fixture.dir != nullptr
                    ? std::string(fixture.dir) + kind + fixture.ext
                    : "testdata/" + rule + "/" + kind + ".cc";
  EXPECT_TRUE(ReadTestdata(rule + "/" + kind + ".cc", &source.content))
      << rule << "/" << kind << ".cc missing";
  // A rule that ships a golden (protocol-effect) is diffed against it.
  std::string golden;
  ReadTestdata(rule + "/golden.txt", &golden);
  return AnalyzeSources({source}, golden).findings;
}

std::string Describe(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

class RuleFixtureTest : public ::testing::TestWithParam<RuleFixture> {};

TEST_P(RuleFixtureTest, BadFiresOnlyItsOwnRule) {
  const std::vector<Finding> findings = RunFixture(GetParam(), "bad");
  EXPECT_GE(CountRule(findings, GetParam().rule), 1);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, GetParam().rule) << Describe(f);
  }
}

TEST_P(RuleFixtureTest, GoodIsSilent) {
  for (const Finding& f : RunFixture(GetParam(), "good")) {
    ADD_FAILURE() << Describe(f);
  }
}

TEST_P(RuleFixtureTest, SuppressedIsSeenAndSilenced) {
  const std::vector<Finding> findings = RunFixture(GetParam(), "suppressed");
  EXPECT_GE(CountRule(findings, GetParam().rule, true), 1);
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.suppressed) << Describe(f);
  }
}

std::string FixtureName(const ::testing::TestParamInfo<RuleFixture>& info) {
  std::string name = info.param.rule;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Passes, RuleFixtureTest,
                         ::testing::ValuesIn(kPassFixtures), FixtureName);
INSTANTIATE_TEST_SUITE_P(FileRules, RuleFixtureTest,
                         ::testing::ValuesIn(kFileRuleFixtures), FixtureName);

TEST(FixtureCorpusTest, EveryTestdataDirectoryIsARegisteredRule) {
  for (const auto& entry :
       std::filesystem::directory_iterator(MINIRAID_ANALYZE_TESTDATA)) {
    const std::string name = entry.path().filename().string();
    if (name == "seeded") continue;
    EXPECT_TRUE(HasRule(kPassFixtures, name) ||
                HasRule(kFileRuleFixtures, name))
        << "testdata/" << name << " has no entry in a fixture table";
  }
}

TEST(FixtureCorpusTest, SeededCodecViewReuseIsCaught) {
  Source source{"testdata/seeded/codec_view_reuse.cc", ""};
  ASSERT_TRUE(ReadTestdata("seeded/codec_view_reuse.cc", &source.content));
  const std::vector<Finding> findings = AnalyzeSources({source}).findings;
  EXPECT_GE(CountRule(findings, "view-escape"), 1);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "view-escape") << Describe(f);
  }
}

// The per-file rules over the real tree: src/ must come back clean of them
// (the other passes gate src/ through the miniraid-analyze CLI).
TEST(SourceTreeTest, PerFileRulesAreCleanOverSrc) {
  std::vector<Source> sources;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(MINIRAID_SOURCE_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".h" && ext != ".cc")) continue;
    Source source{entry.path().string(), ""};
    ASSERT_TRUE(ReadFile(source.path, &source.content)) << source.path;
    sources.push_back(std::move(source));
  }
  ASSERT_FALSE(sources.empty());
  for (const Finding& f : FindingsOf(sources)) {
    if (!f.suppressed && HasRule(kFileRuleFixtures, f.rule)) {
      ADD_FAILURE() << Describe(f);
    }
  }
}

}  // namespace
}  // namespace analyze
}  // namespace miniraid

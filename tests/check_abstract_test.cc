// Tests for the abstract protocol model checker (check/abstract_model.h):
// the exhaustive bound is clean, each known-bug toggle still trips the
// property it historically violated, and exploration is deterministic.

#include "check/abstract_model.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace miniraid::check {
namespace {

AbstractConfig BaseConfig() {
  AbstractConfig cfg;
  cfg.n_sites = 3;
  cfg.n_items = 2;
  cfg.max_depth = 64;  // beyond closure: exploration exhausts at depth 17
  return cfg;
}

TEST(AbstractModelTest, FullClosureAtThreeSitesTwoItemsIsClean) {
  AbstractResult r = ExploreAbstract(BaseConfig());
  ASSERT_FALSE(r.violation.has_value())
      << r.violation->detail << "\n" << r.violation->state;
  // Within the action budgets (3 commits / 2 crashes / 2 refreshes) the
  // state space closes: nothing was cut off by the depth bound.
  EXPECT_FALSE(r.depth_bounded);
  EXPECT_FALSE(r.state_bounded);
  // Closure statistics are a regression pin: a change to the transition
  // relation or the properties must consciously update them (and the
  // matching numbers in docs/ANALYSIS.md).
  EXPECT_EQ(r.states_visited, 9542u);
  EXPECT_EQ(r.max_depth_reached, 17u);
}

TEST(AbstractModelTest, InterleavedCommitsClosureIsClean) {
  // With every commit split into prepare/apply halves, recovery traffic
  // interleaves with transactions past their prepare — the window the
  // intra-site 2PL layer widens in the real engine. Coverage, owner
  // consistency, session consistency and per-edge monotonicity must
  // still close clean (prospective fail-lock maintenance in the info
  // replies is what makes this pass; see the test below).
  AbstractConfig cfg = BaseConfig();
  cfg.interleaved_commits = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_FALSE(r.violation.has_value())
      << r.violation->detail << "\n" << r.violation->state;
  EXPECT_FALSE(r.depth_bounded);
  EXPECT_FALSE(r.state_bounded);
  // Regression pin, like the serial closure above.
  EXPECT_EQ(r.states_visited, 37384u);
  EXPECT_EQ(r.max_depth_reached, 20u);
}

TEST(AbstractModelTest, AgreementHoldsAtClosureWithFixedSemantics) {
  AbstractConfig cfg = BaseConfig();
  cfg.check_lock_agreement = true;
  AbstractResult r = ExploreAbstract(cfg);
  EXPECT_FALSE(r.violation.has_value())
      << r.violation->detail << "\n" << r.violation->state;
}

TEST(AbstractModelTest, ExplorationIsDeterministic) {
  AbstractResult a = ExploreAbstract(BaseConfig());
  AbstractResult b = ExploreAbstract(BaseConfig());
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(AbstractModelTest, SymmetryReductionPreservesTheVerdict) {
  AbstractConfig sym = BaseConfig();
  AbstractConfig raw = BaseConfig();
  raw.canonicalize = false;
  // Bound the raw run's depth: without folding the space is much larger.
  sym.max_depth = raw.max_depth = 10;
  AbstractResult with_sym = ExploreAbstract(sym);
  AbstractResult without = ExploreAbstract(raw);
  EXPECT_FALSE(with_sym.violation.has_value());
  EXPECT_FALSE(without.violation.has_value());
  // Folding can only shrink the canonical state count.
  EXPECT_LE(with_sym.states_visited, without.states_visited);
  EXPECT_GT(with_sym.symmetry_hits, 0u);
}

// Each toggle reproduces a defect this checker found in the real engine
// (docs/ANALYSIS.md "Model checking"); the checker must keep catching it.

TEST(AbstractModelTest, DroppedRecoveryWindowUpdatesAreCaught) {
  AbstractConfig cfg = BaseConfig();
  cfg.drop_recovery_window_updates = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->property, AbstractProperty::kLockOwnerConsistency)
      << r.violation->detail;
}

TEST(AbstractModelTest, PreFixCommitSemanticsViolateReadSafety) {
  AbstractConfig cfg = BaseConfig();
  cfg.skip_prepare_view_merge = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->property, AbstractProperty::kFreshCopyCoverage)
      << r.violation->detail;
  // The historical counterexample was 7 actions deep; BFS returns a
  // shortest path, so the depth must not grow.
  EXPECT_LE(r.violation->path.size(), 7u);
}

TEST(AbstractModelTest, PreFixCommitSemanticsRefuteLockAgreement) {
  AbstractConfig cfg = BaseConfig();
  cfg.skip_prepare_view_merge = true;
  cfg.check_lock_agreement = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_TRUE(r.violation.has_value());
  // Agreement is the shallower symptom of the same defect, so it fires
  // first (historically at 6 actions).
  EXPECT_EQ(r.violation->property, AbstractProperty::kLockAgreement)
      << r.violation->detail;
  EXPECT_LE(r.violation->path.size(), 6u);
}

TEST(AbstractModelTest, SkippedProspectiveFailLocksAreCaught) {
  // Pre-fix recovery info replies serve only the responder's current
  // table. A commit prepared before the announce and applied after the
  // snapshot then maintains bits no info reply carried, and the recovered
  // site's table is immediately wrong — the defect the systematic layer
  // found in the real engine (regression_recovery_inflight_coverage) and
  // Site::RecoveryInfoRows fixes.
  AbstractConfig cfg = BaseConfig();
  cfg.interleaved_commits = true;
  cfg.skip_prospective_faillocks = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->property, AbstractProperty::kLockOwnerConsistency)
      << r.violation->detail;
  // BFS shortest counterexample: 8 actions (crash, detect, begin-commit,
  // begin-recovery, reply, end-commit, crash, end-recovery).
  EXPECT_LE(r.violation->path.size(), 8u);
}

TEST(AbstractModelTest, NarrowClearBroadcastLeavesAStaleLockBehind) {
  AbstractConfig cfg = BaseConfig();
  cfg.narrow_clear_broadcast = true;
  AbstractResult r = ExploreAbstract(cfg);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->property, AbstractProperty::kLockOwnerConsistency)
      << r.violation->detail;
  EXPECT_LE(r.violation->path.size(), 12u);
}

TEST(AbstractModelTest, ActionsRoundTripThroughApply) {
  AbstractConfig cfg = BaseConfig();
  ModelState s = InitialState(cfg);
  std::vector<AbstractAction> actions = EnabledActions(cfg, s);
  ASSERT_FALSE(actions.empty());
  // From the all-up initial state the enabled set is commits and crashes
  // only (nothing to detect, recover, or refresh).
  for (const AbstractAction& a : actions) {
    EXPECT_TRUE(a.kind == AbstractAction::Kind::kCommit ||
                a.kind == AbstractAction::Kind::kCrash)
        << a.ToString();
    ModelState next = ApplyAction(cfg, s, a);
    EXPECT_FALSE(CheckState(cfg, next).has_value())
        << "one step from the initial state violated a property: "
        << a.ToString();
  }
}

TEST(AbstractModelTest, StateBoundReportsInsteadOfFailing) {
  AbstractConfig cfg = BaseConfig();
  cfg.max_states = 100;
  AbstractResult r = ExploreAbstract(cfg);
  EXPECT_TRUE(r.state_bounded);
  EXPECT_FALSE(r.violation.has_value());
}

// ---------------------------------------------------------------------------
// Action/effect vocabulary (the bridge to miniraid-analyze's effect golden).
// ---------------------------------------------------------------------------

TEST(ActionVocabularyTest, CoversAllKindsInOrderWithUniqueNames) {
  const auto& vocab = AbstractActionVocabulary();
  ASSERT_EQ(vocab.size(), 9u);
  std::set<std::string> names;
  for (size_t i = 0; i < vocab.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(vocab[i].kind), i);
    EXPECT_TRUE(names.insert(std::string(vocab[i].name)).second)
        << vocab[i].name;
  }
}

#ifdef MINIRAID_EFFECTS_GOLDEN
// Every handler and effect token the checked-in analyzer golden approves
// must be owned by at least one abstract action: a golden entry with no
// owner means src/replication grew a protocol step the model does not
// explore, and the two must be reconciled together.
TEST(ActionVocabularyTest, EffectGoldenStaysInsideTheVocabulary) {
  std::ifstream in(MINIRAID_EFFECTS_GOLDEN);
  ASSERT_TRUE(in) << "cannot read " << MINIRAID_EFFECTS_GOLDEN;

  std::set<std::string> known_handlers, known_effects;
  for (const ActionEffectVocabulary& v : AbstractActionVocabulary()) {
    for (std::string_view h : v.handlers) known_handlers.emplace(h);
    for (std::string_view e : v.effects) known_effects.emplace(e);
  }

  // Pure acks and client-side replies carry no effects, so no abstract
  // action claims them; they are still legitimate golden entries. So are
  // the retired group-commit types, which the dispatcher ignores.
  const std::set<std::string> pure_wire_steps = {
      "kChannelAck",     "kClearFailLocksAck", "kCopyCreateAck",
      "kFailureAck",     "kShutdown",          "kTxnReply",
      "kBatchPrepare",   "kBatchPrepareAck",   "kBatchCommit",
      "kBatchCommitAck"};

  std::string line;
  int handlers_seen = 0;
  while (std::getline(in, line)) {
    std::string::size_type hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::string::size_type colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string handler = line.substr(0, colon);
    handler.erase(0, handler.find_first_not_of(" \t"));
    handler.erase(handler.find_last_not_of(" \t") + 1);
    if (handler.empty()) continue;
    ++handlers_seen;
    EXPECT_TRUE(known_handlers.count(handler) ||
                pure_wire_steps.count(handler))
        << "golden handler " << handler << " has no owning abstract action";
    std::istringstream rest(line.substr(colon + 1));
    std::string tok;
    while (rest >> tok) {
      if (tok == "-") continue;
      EXPECT_TRUE(known_effects.count(tok))
          << "golden effect " << tok << " (handler " << handler
          << ") is outside the abstract action vocabulary";
    }
  }
  // The golden covers the whole MsgType alphabet; an empty parse would
  // make the containment checks above pass vacuously.
  EXPECT_GE(handlers_seen, 20);
}
#endif  // MINIRAID_EFFECTS_GOLDEN

}  // namespace
}  // namespace miniraid::check

#ifndef MINIRAID_CHECK_ABSTRACT_MODEL_H_
#define MINIRAID_CHECK_ABSTRACT_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace miniraid::check {

/// Exhaustive explorer over an abstract model of the paper's replicated
/// copy-control protocol: N fully-replicated sites × M items, each site
/// carrying a session vector (session number + believed status per site), a
/// fail-lock table (one bit per item × site), and a copy version per item.
///
/// The transition relation mirrors src/replication/site.cc action for
/// action — ROWAA commit with commit-time fail-lock maintenance, failure
/// detection + type-2 announcement, two-step recovery (type-1 announce /
/// info replies / completion merge) with the recovery-window update
/// journal, and copier refresh with the special clear-fail-locks
/// transaction — but collapses each protocol exchange into one atomic
/// step. What stays nondeterministic is exactly what the paper's
/// correctness argument depends on: which site acts next, which responder's
/// recovery reply lands before which commit, who detects a failure first.
/// Bounded BFS with state hashing and site/item symmetry reduction then
/// visits every reachable interleaving up to the configured depth.
///
/// The fidelity limit is the atomicity of each step: message-level skew
/// *inside* one exchange (a half-delivered type-2 announce) is out of
/// scope here and covered by the systematic layer (check/systematic.h),
/// which drives the real Site code event by event.
struct AbstractConfig {
  uint32_t n_sites = 3;
  uint32_t n_items = 2;
  /// Maximum number of transitions from the initial state.
  uint32_t max_depth = 12;
  /// Per-path action budgets. These bound the state space the same way the
  /// depth bound does; they are part of the state, so exploration remains
  /// exhaustive within them.
  uint32_t max_commits = 3;
  uint32_t max_crashes = 2;
  uint32_t max_refreshes = 2;
  /// Split every commit into kBeginCommit (prepare: participant set
  /// pinned, coordinator's vector merged) and kEndCommit (writes + commit-
  /// time fail-lock maintenance), so recovery announces, info replies and
  /// completions interleave with a transaction that is past its prepare —
  /// the window the intra-site 2PL layer widens in the real engine (a
  /// pinned commit can stay in flight while dozens of others run). Off =
  /// the classic atomic kCommit action.
  bool interleaved_commits = false;
  /// Fold site- and item-permutation-symmetric states together. Sound for
  /// this model: the initial state and every guard/effect are symmetric
  /// under relabeling.
  bool canonicalize = true;
  /// Stop after this many stored states (0 = unlimited). Exceeding it sets
  /// AbstractResult::state_bounded rather than failing.
  uint64_t max_states = 0;
  /// Stop at the first property violation (on = counterexample search;
  /// off would be pointless — kept implicit).
  ///
  /// Known-bug semantics toggles. Each reproduces a defect this checker
  /// found in the real protocol engine (and whose fix this model now
  /// mirrors), so tests can assert the checker still catches it:
  ///
  /// drop_recovery_window_updates: CompleteRecovery installs the union of
  /// the responders' fail-lock tables *discarding* set/clear operations
  /// applied locally during the waiting-to-recover window (the pre-fix
  /// site.cc semantics — a commit in the window is forgotten).
  bool drop_recovery_window_updates = false;
  /// skip_prepare_view_merge: pre-fix commit semantics, all three pieces at
  /// once — participants do not merge the coordinator's session vector at
  /// prepare time, a participant with strictly newer session knowledge does
  /// not veto the commit, and each participant maintains fail-locks from
  /// its own believed-down view instead of from the commit's participant
  /// set. Under this toggle a coordinator that missed a recovery announce
  /// commits around the recovering site, the announce-aware participants
  /// skip the fail-lock, and one crash can erase the only record that the
  /// recovering copy is stale (read-safety violation at depth 7).
  bool skip_prepare_view_merge = false;
  /// narrow_clear_broadcast: the copier's clear-fail-locks special
  /// transaction is sent only to peers the refresher believes up (pre-fix
  /// semantics), so a just-recovered site the refresher has not heard
  /// about misses the clear and carries a spurious stale fail-lock
  /// indefinitely (lock-owner-consistency violation at depth 12).
  bool narrow_clear_broadcast = false;
  /// skip_prospective_faillocks: recovery info replies serve only the
  /// responder's current fail-lock table (pre-fix site.cc semantics),
  /// omitting prospective bits for commits already past their prepare.
  /// Only meaningful with interleaved_commits: a commit prepared before
  /// the announce and applied after completion then sets bits every info
  /// snapshot missed, and the recovered site serves committed reads from a
  /// stale copy whose own-table bit is clear (read-safety violation;
  /// mirrors Site::RecoveryInfoRows and the
  /// regression_recovery_inflight_coverage trace).
  bool skip_prospective_faillocks = false;
  /// Also assert pointwise fail-lock agreement between operational
  /// observers at quiescence. This checker REFUTED agreement under the
  /// pre-fix commit semantics: a commit racing a recovery announce made
  /// one participant run maintenance under the pre-announce view and
  /// another under the post-announce view, and the divergent rows
  /// persisted across quiescent cuts until a copier rewrote them (6-action
  /// counterexample at 3 sites x 1 item, reproducible with
  /// skip_prepare_view_merge; see docs/ANALYSIS.md). With the fix set —
  /// participant-set maintenance plus the stale-coordinator veto —
  /// agreement holds again at full closure of this model. It stays off by
  /// default because the model commits atomically: the real engine still
  /// legitimately diverges when a participant crashes mid-commit (the
  /// coordinator fail-locks the silent site's copies while the acked
  /// participants cleared them), so agreement is a nominal-regime
  /// observation there, not an invariant. The load-bearing safety property
  /// is kFreshCopyCoverage (local read safety).
  bool check_lock_agreement = false;
};

inline constexpr uint32_t kMaxModelSites = 4;
inline constexpr uint32_t kMaxModelItems = 3;

/// One entry of a session vector as some observer records it.
struct PeerView {
  uint8_t session = 0;
  bool up = true;
};

enum class SiteMode : uint8_t { kUp = 0, kDown = 1, kRecovering = 2 };

/// Protocol-visible state of one modelled site. `locks[x]` bit k set means
/// this site believes site k's copy of item x missed a committed update.
struct ModelSite {
  SiteMode mode = SiteMode::kUp;
  PeerView view[kMaxModelSites];
  uint8_t locks[kMaxModelItems] = {};
  uint8_t ver[kMaxModelItems] = {};
};

/// An in-flight type-1 (recovery) control transaction.
struct ModelRecovery {
  bool active = false;
  uint8_t new_session = 0;
  /// Responders that were up at announce time and have not replied yet.
  uint8_t pending = 0;
  bool any_info = false;
  /// Union of the responders' fail-lock tables / join of their vectors.
  uint8_t info_locks[kMaxModelItems] = {};
  PeerView info_view[kMaxModelSites];
  /// Journal of fail-lock bits written at the recovering site during the
  /// window: `touched[x]` marks columns written, `window_value[x]` their
  /// final value. Replayed over the merged table at completion (unless
  /// AbstractConfig::drop_recovery_window_updates reproduces the bug).
  uint8_t touched[kMaxModelItems] = {};
  uint8_t window_value[kMaxModelItems] = {};
};

/// A commit past its prepare but not yet applied (interleaved_commits
/// only). One slot per item: the per-item exclusive write lock admits at
/// most one transaction between prepare and commit on an item, and the
/// model folds each transaction to a single-item write.
struct ModelPending {
  bool active = false;
  uint8_t coord = 0;
  /// Participant set pinned at prepare time, coordinator included.
  uint8_t participants = 0;
};

struct ModelState {
  ModelSite site[kMaxModelSites];
  ModelRecovery rec[kMaxModelSites];
  ModelPending pend[kMaxModelItems];
  /// Freshest committed version per item, cluster-wide (the oracle the
  /// coverage property compares copies against).
  uint8_t latest[kMaxModelItems] = {};
  uint8_t commits_used = 0;
  uint8_t crashes_used = 0;
  uint8_t refreshes_used = 0;

  /// Byte encoding under a site/item relabeling (identity = plain
  /// encoding). Equal encodings = equal states.
  std::string Encode(const AbstractConfig& cfg, const uint8_t* site_perm,
                     const uint8_t* item_perm) const;
  std::string Dump(const AbstractConfig& cfg) const;
};

/// Returns the model's initial state: all sites up, all sessions 0, no
/// fail-locks, all copies at version 0.
ModelState InitialState(const AbstractConfig& cfg);

struct AbstractAction {
  enum class Kind : uint8_t {
    /// ROWAA write commit of `item` coordinated by `site`: writes at every
    /// participant the coordinator believes up (all of which are actually
    /// reachable — see kDetectFailure otherwise), merges the coordinator's
    /// vector at each participant, and runs fail-lock maintenance there.
    kCommit = 0,
    /// `site` times out on `peer` (commit prepare, copier, or participant
    /// patience — the model does not care which), marks it down, and runs
    /// the type-2 announcement to its believed-up reachable peers.
    kDetectFailure = 1,
    /// `site` crashes (retains state, per the paper's failure model).
    kCrash = 2,
    /// Down `site` starts recovery: bumps its session, announces to all;
    /// up peers become pending responders.
    kBeginRecovery = 3,
    /// Pending responder `peer` processes `site`'s announce — records the
    /// new session, snapshots its vector + fail-lock table into the reply —
    /// and the reply reaches `site`.
    kRecoveryReply = 4,
    /// `site` completes recovery once no pending responder can still
    /// reply: installs the union of the received tables, replays the
    /// window journal, joins vectors, comes up.
    kEndRecovery = 5,
    /// Copier transaction: up `site` refreshes its fail-locked copy of
    /// `item` from `peer` and broadcasts the clear-fail-locks special
    /// transaction.
    kRefresh = 6,
    /// interleaved_commits prepare half of kCommit: coordinator `site`
    /// pins the participant set for `item`, merges its vector at the
    /// participants, and takes the item's pending slot. The write happens
    /// at kEndCommit; a crash of any participant first means presumed
    /// abort (the slot is cleared, nothing was applied).
    kBeginCommit = 7,
    /// interleaved_commits commit half: applies the write and runs
    /// fail-lock maintenance from the pinned participant set, then frees
    /// the pending slot.
    kEndCommit = 8,
  };
  Kind kind = Kind::kCommit;
  uint8_t site = 0;
  uint8_t peer = 0;
  uint8_t item = 0;

  std::string ToString() const;
};

/// Safety properties asserted on every quiescent state (no recovery in
/// flight). Names follow core/invariants.h where the meaning coincides.
enum class AbstractProperty : uint8_t {
  /// Operational observers agree on every fail-lock column other than
  /// their own ("recovery clears fail-locks everywhere" is the clear
  /// direction of this).
  kLockAgreement = 0,
  /// A fail-lock bit (x, k) at an operational observer that believes k up
  /// while k is actually up requires k's own table to carry the bit.
  kLockOwnerConsistency = 1,
  /// No operational observer records a higher session for an up site than
  /// the site itself.
  kSessionConsistency = 2,
  /// Session numbers never regress along any transition (checked on every
  /// edge, not only quiescent states).
  kSessionMonotonic = 3,
  /// "No committed read of a stale copy": every up site's copy whose
  /// fail-lock bit is clear in the site's OWN table matches the freshest
  /// committed version (reads consult only the local table). The model
  /// asserts the unqualified form: kDetectFailure only fires on actually-
  /// down peers, so the real checker's excluded-site qualifier (false
  /// suspicion under timeout-based detection) never arises here.
  kFreshCopyCoverage = 4,
};

std::string_view AbstractPropertyName(AbstractProperty p);

/// One abstract action's footprint in the implementation: the MsgType
/// handlers that realize it in src/replication/site.cc and the analyzer
/// effect tokens those handlers may produce. This is the bridge between the
/// model's action alphabet and miniraid-analyze's protocol-effect pass: the
/// checked-in effect golden (tools/miniraid-analyze/effects_golden.txt) must
/// stay inside the union of these effect sets, which
/// tests/check_abstract_test.cc asserts. A handler effect with no owning
/// abstract action means the implementation grew a protocol step the model
/// does not explore.
struct ActionEffectVocabulary {
  AbstractAction::Kind kind;
  std::string_view name;                   // enumerator spelling, "kCommit"
  std::vector<std::string_view> handlers;  // realizing MsgType enumerators
  std::vector<std::string_view> effects;   // permitted effect tokens
};

/// The vocabulary for all ten action kinds, in Kind order.
const std::vector<ActionEffectVocabulary>& AbstractActionVocabulary();

struct AbstractViolation {
  AbstractProperty property = AbstractProperty::kLockAgreement;
  std::string detail;
  /// Action path from the initial state to the violating state.
  std::vector<AbstractAction> path;
  /// Human-readable dump of the violating state.
  std::string state;
};

struct AbstractResult {
  uint64_t states_visited = 0;   // canonical states stored
  uint64_t states_expanded = 0;  // dequeued and expanded
  uint64_t transitions = 0;      // edges taken (successors generated)
  uint64_t symmetry_hits = 0;    // successors folded into a visited state
  uint32_t max_depth_reached = 0;
  bool depth_bounded = false;  // some state still had successors at the bound
  bool state_bounded = false;  // max_states cut the search short
  /// Order-independent hash over the canonical visited set; equal runs
  /// must produce equal fingerprints (the determinism witness the smoke
  /// test compares across two executions).
  uint64_t fingerprint = 0;
  std::optional<AbstractViolation> violation;
};

/// Enumerates every action enabled in `state` (deterministic order).
std::vector<AbstractAction> EnabledActions(const AbstractConfig& cfg,
                                           const ModelState& state);

/// Applies `action` (which must be enabled) and returns the successor.
ModelState ApplyAction(const AbstractConfig& cfg, const ModelState& state,
                       const AbstractAction& action);

/// Checks the quiescent-state properties; returns a description of the
/// first violated one, or nullopt.
std::optional<std::pair<AbstractProperty, std::string>> CheckState(
    const AbstractConfig& cfg, const ModelState& state);

/// Bounded exhaustive BFS from the initial state. Stops at the first
/// property violation.
AbstractResult ExploreAbstract(const AbstractConfig& cfg);

}  // namespace miniraid::check

#endif  // MINIRAID_CHECK_ABSTRACT_MODEL_H_

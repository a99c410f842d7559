#ifndef MINIRAID_CHECK_SYSTEMATIC_H_
#define MINIRAID_CHECK_SYSTEMATIC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/trace_io.h"
#include "core/invariants.h"
#include "msg/message.h"

namespace miniraid::check {

/// Systematic-execution checker over the *real* protocol engine: it stands
/// up a fresh SimCluster per execution, injects a fixed schedule of
/// external actions (transaction submissions, site failures, recoveries),
/// and — instead of the simulator's default FIFO — explores every order of
/// the events tied at the current virtual instant, plus every point at
/// which the next external action may be injected. With zero message
/// latency the whole protocol exchange for one step collapses onto a
/// single instant, so "events tied at the front time" is exactly the
/// message-delivery nondeterminism a real network would exhibit.
///
/// Exploration is stateless DFS: each execution replays the recorded
/// branch picks from scratch (the simulator is bit-for-bit deterministic),
/// then flips the deepest untried pick. Sleep sets prune provably
/// commuting reorderings (deliveries to distinct sites are independent).
/// At every quiescent cut — event queue drained — the cluster-wide
/// invariants (core/invariants.h) are asserted over live site snapshots;
/// the first violating execution is returned as a CheckTrace that replays
/// byte for byte.
struct SystematicOptions {
  uint32_t n_sites = 3;
  uint32_t db_size = 2;
  /// Intra-site concurrency of every site engine. Serial by default; set
  /// mode = kTwoPhaseLocking (wait-die recommended — no lock timers, so
  /// quiescent cuts stay reachable) to explore interleaved executions of
  /// overlapping coordinations at one site.
  ConcurrencyOptions concurrency;
  std::vector<ScheduleAction> actions;
  /// Choice points recorded (and therefore explored) per execution; deeper
  /// choice points fall back to FIFO order. Exhaustive within the bound.
  uint32_t max_branch_points = 16;
  /// Hard cap on executions; hitting it sets SystematicResult::
  /// execution_bounded instead of failing.
  uint64_t max_executions = 20000;
  bool sleep_sets = true;
  InvariantChecker::Options invariants;
};

struct SystematicResult {
  uint64_t executions = 0;
  uint64_t steps_total = 0;      // events run + actions injected, summed
  uint64_t branch_points = 0;    // distinct recorded branch nodes
  uint64_t sleep_skips = 0;      // alternatives pruned by sleep sets
  uint32_t max_choice_points = 0;  // most choice points seen in one execution
  bool execution_bounded = false;  // stopped on max_executions
  bool branch_bounded = false;     // some execution out-branched the budget
  /// Order-independent hash over every execution's pick sequence; two runs
  /// of the same options must agree (the determinism witness).
  uint64_t fingerprint = 0;
  /// First violating execution, replayable via ReplayTrace.
  std::optional<CheckTrace> counterexample;
  /// The invariant violations that execution produced (string form).
  std::vector<std::string> violations;
};

/// The invariant set the systematic layer asserts at quiescent cuts.
/// Everything in core/invariants.h EXCEPT pointwise fail-lock agreement:
/// a participant crashing mid-commit legitimately leaves the coordinator
/// with the silent site's copies fail-locked while the acked participants
/// cleared them, and the divergence persists across quiescent cuts until
/// a copier rewrites the column. Read safety still holds — the recovered
/// site's own table carries the bit via the recovery info union — so
/// agreement is a nominal-regime observation, not an invariant (the
/// abstract model, whose commits are atomic, does assert it; see
/// AbstractConfig::check_lock_agreement).
InvariantChecker::Options SystematicOracleOptions();

SystematicResult ExploreSystematic(const SystematicOptions& options);

/// Replays `trace` through a fresh SimCluster, forcing the recorded pick at
/// every choice point and asserting the option fanout matches the recorded
/// one (the determinism contract).
struct ReplayOutcome {
  /// Schedule applied exactly as recorded; false = the code's behaviour
  /// diverged from the trace (fanout mismatch / pick out of range).
  bool matched = true;
  std::string mismatch;
  uint64_t steps = 0;
  uint32_t choice_points = 0;
  /// Invariant violations encountered at the quiescent cuts (string form).
  /// A regression trace for a fixed bug must replay with this empty.
  std::vector<std::string> violations;
};

ReplayOutcome ReplayTrace(
    const CheckTrace& trace,
    const InvariantChecker::Options& invariants = SystematicOracleOptions());

/// Runs `options`' schedule once with fixed pseudo-deterministic non-FIFO
/// picks and records it as a trace. The result is a golden schedule: it
/// must keep replaying with ReplayOutcome::matched across code changes, so
/// checked-in golden traces pin the simulator's byte-for-byte determinism.
CheckTrace RecordGoldenTrace(const SystematicOptions& options);

/// The read check the explorer applies to every reply: a committed read
/// must return the initial (value 0, version 0) or a value a scenario
/// transaction writes, WriteValueFor(version, item) with the writer's id
/// as the version. Returns a description of the first read that is
/// neither, or an empty string.
std::string CheckCommittedReads(const TxnResult& result,
                                const std::vector<ScheduleAction>& schedule);

/// Canned schedules for minicheck and the tests. Each stresses one of the
/// paper's failure/recovery windows.
std::vector<std::string_view> ScenarioNames();
std::optional<SystematicOptions> ScenarioByName(std::string_view name);

}  // namespace miniraid::check

#endif  // MINIRAID_CHECK_SYSTEMATIC_H_

#ifndef MINIRAID_REPLICATION_OPTIONS_H_
#define MINIRAID_REPLICATION_OPTIONS_H_

#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "metrics/trace.h"
#include "replication/cost_model.h"

namespace miniraid {

/// How a site schedules the transactions it coordinates.
enum class ConcurrencyMode : uint8_t {
  /// One coordination at a time per site (the paper's assumption 2);
  /// incoming requests queue behind the active one. The default — the
  /// paper experiments reproduce unchanged.
  kSerial = 0,
  /// Strict per-item two-phase locking: up to `max_executors` concurrent
  /// coordinations per site, each holding shared locks on its read set and
  /// exclusive locks on its write set from acquisition through commit.
  kTwoPhaseLocking = 1,
};

/// How lock-wait cycles are broken under kTwoPhaseLocking. Wait-die is
/// the lock manager's only behaviour (see LockManager); the enum keeps its
/// one value only while configurations still name it.
enum class DeadlockPolicy : uint8_t {
  /// WAIT-DIE on transaction ids: an older requester (smaller id) waits,
  /// a younger one is rejected immediately (kAbortedLockConflict).
  kWaitDie = 0,
};

/// Intra-site concurrency control, grouped in one sub-struct (mirroring
/// the TransportFaults pattern) so call sites configure scheduling as a
/// unit: `options.concurrency = {.mode = ..., .max_executors = ...}`.
struct ConcurrencyOptions {
  ConcurrencyMode mode = ConcurrencyMode::kSerial;

  /// Upper bound on concurrent coordinations per site under
  /// kTwoPhaseLocking (ignored — effectively 1 — under kSerial). All
  /// executors share the site's one execution context; concurrency means
  /// logically interleaved 2PC coordinations, not threads.
  uint32_t max_executors = 8;

  /// Read by nothing: kWaitDie is the only policy. Kept only because
  /// e2ebench/generator.cc sets it.
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kWaitDie;

  bool locking() const { return mode == ConcurrencyMode::kTwoPhaseLocking; }

  /// Coordination slots the site engine actually uses.
  uint32_t EffectiveExecutors() const {
    return locking() ? (max_executors > 0 ? max_executors : 1) : 1;
  }
};

/// Read by nothing: every transaction commits in its own 2PC round
/// (Appendix A). Kept only because e2ebench/generator.cc sets max_batch.
struct BatchingOptions {
  uint32_t max_batch = 1;
};

/// Static configuration shared by every site in a cluster.
struct SiteOptions {
  /// Number of database sites (the managing site is extra, see
  /// `managing_site`).
  uint32_t n_sites = 2;

  /// Size of the frequently-referenced hot set (paper: 50).
  uint32_t db_size = 50;

  /// Id of the managing site (by convention n_sites; it holds no replica
  /// and is never counted operational for ROWAA purposes).
  SiteId managing_site = kInvalidSite;

  /// Per-site item placement; empty means full replication (the paper's
  /// assumption 4). Used by the partial-replication / type-3 extension.
  std::vector<std::vector<ItemId>> placement;

  /// Toggle for Experiment 1: when false, the fail-lock maintenance code in
  /// the commit step is skipped entirely (work and CPU charge), matching
  /// the paper's "fail-locks maintenance code removed from the software".
  bool maintain_fail_locks = true;

  /// Modelled CPU costs (Zero for pure-logic runs).
  CostModel costs = CostModel::Zero();

  /// How long a site waits for acknowledgements (2PC acks, copy replies,
  /// recovery info) before declaring the silent party failed. It is the
  /// whole wait: the engine re-sends nothing, so over a lossy network the
  /// reliable channel's repair (RTO 100 ms, doubling per attempt) must fit
  /// inside it. A prepared participant waits 3x this for the decision.
  Duration ack_timeout = Milliseconds(1000);

  /// Two-step recovery (paper §3.2 proposal). When the fraction of this
  /// site's copies that are fail-locked drops to or below this threshold,
  /// the site enters step two and proactively issues batch copier
  /// transactions instead of waiting for reads to demand them. 0 disables
  /// step two (the paper's measured implementation); 1.0 makes recovery
  /// fully proactive.
  double batch_copier_threshold = 0.0;

  /// Items refreshed per batch copier transaction.
  uint32_t batch_copier_chunk = 10;

  /// Control transaction type 3 (paper §3.2 proposal): when this site
  /// detects it holds the last operational up-to-date copy of an item, it
  /// creates a backup copy on a site that lacks one.
  bool enable_type3 = false;

  /// Crash semantics. The paper simulates failure by making the site
  /// inactive with its memory intact (false). With true, a crash wipes the
  /// database and fail-lock table (a cold restart); at recovery the site
  /// conservatively fail-locks every copy it holds, so the whole database
  /// is refreshed through copier transactions and writes before any of it
  /// is served. The session counter survives either way (a persistent boot
  /// counter — session numbers must never repeat for the type-2
  /// stale-announcement guard to work).
  bool lose_state_on_crash = false;

  /// Opt-in concurrency-control extension (the paper's deferred "complete
  /// RAID" integration): strict two-phase item locking with a configurable
  /// deadlock policy and executor bound. Defaults to serial execution —
  /// the paper's experiments run without concurrency control
  /// (assumption 2). See ConcurrencyOptions.
  ConcurrencyOptions concurrency;

  /// Read by nothing; see BatchingOptions.
  BatchingOptions batching;

  /// Optional shared protocol trace (not owned; must outlive the sites).
  /// Works on every backend: one mutex guards TraceLog's buffer, so the
  /// sites' loop threads may record into it concurrently.
  TraceLog* trace = nullptr;

  /// Durability hook: invoked from the site's execution context after every
  /// local application of a committed write or installed copy, with the
  /// item's new (value, version). Drivers mirror these into a
  /// DurableDatabase (src/storage) and feed the image back through
  /// Site::RestoreImage after a process restart.
  std::function<void(ItemId, Value, Version)> on_apply;
};

}  // namespace miniraid

#endif  // MINIRAID_REPLICATION_OPTIONS_H_

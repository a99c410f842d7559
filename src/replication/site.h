#ifndef MINIRAID_REPLICATION_SITE_H_
#define MINIRAID_REPLICATION_SITE_H_

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/runtime.h"
#include "common/thread_annotations.h"
#include "db/database.h"
#include "net/transport.h"
#include "replication/counters.h"
#include "replication/fail_locks.h"
#include "replication/lock_manager.h"
#include "replication/options.h"
#include "replication/placement.h"
#include "replication/session_vector.h"

namespace miniraid {

/// One database site: the protocol engine implementing the paper's
/// replicated copy control — ROWAA transaction processing via two-phase
/// commit (Appendix A), fail-lock maintenance inside the commit step,
/// copier transactions with the special fail-lock-clearing transaction,
/// control transactions type 1 (recovery), type 2 (failure announcement),
/// and the proposed type 3 (backup-copy creation), plus the proposed
/// two-step recovery with batch copiers.
///
/// The engine is runtime-agnostic: all time, timers, CPU accounting, and
/// messaging go through SiteRuntime and Transport, so the identical code
/// runs under the deterministic simulator and on real threads/sockets.
/// All methods must be called from the site's execution context
/// (MR_RUNS_ON(loop), enforced by tools/miniraid-analyze).
///
/// Execution is serial by default (paper assumption 2). Under
/// ConcurrencyOptions::mode == kTwoPhaseLocking the site runs up to
/// max_executors coordinations concurrently — logically interleaved in
/// the one execution context, isolated by per-item strict two-phase locks
/// (see LockManager and docs/PROTOCOL.md §9 for why commit-time fail-lock
/// maintenance stays atomic with respect to the concurrent executors).
class Site : public MessageHandler {
 public:
  Site(SiteId id, const SiteOptions& options, Transport* transport,
       SiteRuntime* runtime);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Transport entry point.
  MR_RUNS_ON(loop) void OnMessage(const Message& msg) override;

  /// Simulated crash (the managing site's kFailSite does this): the site
  /// stops participating in all system actions until recovery. State is
  /// retained, as in the paper's implementation, where a failed site
  /// "would remain inactive until recovery was initiated".
  MR_RUNS_ON(loop) void Crash();

  /// Begins the control-type-1 recovery protocol (kRecoverSite does this).
  MR_RUNS_ON(loop) void StartRecovery();

  /// Restores a durable image into a DOWN site that lost its volatile
  /// state (lose_state_on_crash): the modelled equivalent of a process
  /// restarting from its DurableDatabase before rejoining via control
  /// type 1. After the restore only the updates committed while the site
  /// was down need fail-lock-driven refresh, exactly as with retained
  /// state. kFailedPrecondition unless the site is down.
  MR_RUNS_ON(loop) Status RestoreImage(const std::vector<ItemCopy>& image);

  // -- introspection (drivers, experiments, tests) -----------------------

  MR_RUNS_ON(any) SiteId id() const { return id_; }
  MR_RUNS_ON(loop) SiteStatus local_status() const { return status_; }
  MR_RUNS_ON(loop) bool is_up() const { return status_ == SiteStatus::kUp; }

  /// True while the site is up but still holds fail-locks on its own
  /// copies (the paper's "recovery period").
  MR_RUNS_ON(loop) bool InRecoveryPeriod() const {
    return is_up() && fail_locks_.CountForSite(id_) > 0;
  }

  MR_RUNS_ON(loop) const Database& db() const { return db_; }
  MR_RUNS_ON(loop) const SessionVector& session_vector() const { return session_vector_; }
  MR_RUNS_ON(loop) const FailLockTable& fail_locks() const { return fail_locks_; }
  MR_RUNS_ON(loop) const HoldersTable& holders() const { return holders_; }
  MR_RUNS_ON(loop) const SiteCounters& counters() const { return counters_; }

  /// Mutable counters, so drivers can reset between warmup and measurement
  /// windows (the paper measured "after a stable state of transaction
  /// processing was achieved").
  MR_RUNS_ON(loop) SiteCounters& mutable_counters() { return counters_; }
  MR_RUNS_ON(any) const SiteOptions& options() const { return options_; }

  /// Number of this site's own copies currently fail-locked.
  MR_RUNS_ON(loop) uint32_t OwnFailLockCount() const { return fail_locks_.CountForSite(id_); }

  /// True if no transaction / recovery is in flight at this site.
  MR_RUNS_ON(loop) bool IsIdle() const {
    return coords_.empty() && !batch_.has_value() && participations_.empty() &&
           !recovery_.has_value() && queued_requests_.empty();
  }

  /// Transaction requests waiting for an executor slot (requests that
  /// arrive while every slot is busy are queued and served in order).
  MR_RUNS_ON(loop) size_t QueuedRequests() const { return queued_requests_.size(); }

  /// Coordinations currently in flight (excluding a batch refresh).
  MR_RUNS_ON(loop) size_t ActiveCoordinations() const { return coords_.size(); }

  /// The lock manager, for tests and invariant checks. Meaningful only
  /// under ConcurrencyOptions::mode == kTwoPhaseLocking.
  MR_RUNS_ON(loop) const LockManager& lock_manager() const { return lock_manager_; }

 private:
  // State of a transaction this site is coordinating. Under the default
  // serial mode (paper assumption 2) at most one coordination is in
  // flight; under two-phase locking up to
  // ConcurrencyOptions::max_executors interleave in this one execution
  // context, isolated by the per-item locks.
  struct Coordination {
    TxnSpec txn;
    SiteId client = kInvalidSite;
    TimePoint start_time = 0;
    /// This coordination's number (see PrepareArgs::attempt).
    uint64_t attempt = 0;

    enum class Phase {
      kCopier,      // waiting for copy replies
      kPrepare,     // phase one: waiting for prepare acks
      kCommit,      // phase two: waiting for commit acks
    };
    Phase phase = Phase::kCopier;

    // Copier sub-state: source site -> items requested from it.
    std::map<SiteId, std::vector<ItemId>> copies_pending;
    // Fail-locked own copies refreshed by copier transactions.
    std::vector<ItemId> refreshed_items;
    // Values fetched for reads of items this site holds no copy of
    // (partial replication).
    std::map<ItemId, ItemState> remote_reads;
    uint32_t copier_count = 0;

    std::vector<SiteId> participants;
    /// Participants whose ack for the current phase is still owed, in
    /// ascending order (a subset of `participants`).
    std::vector<SiteId> awaiting;
    std::vector<ItemWrite> writes;
    std::vector<ItemCopy> reads;

    TimerId timer = kInvalidTimer;
    // True if this is a step-two batch copier refresh rather than a client
    // transaction (txn/client unused, no 2PC follows the copier).
    bool batch_refresh = false;

    // When the current phase started (per-phase latency counters).
    TimePoint phase_start = 0;

    // Locking extension state: read-set items needing copier refresh
    // (computed before lock acquisition) and outstanding queued local
    // lock requests.
    std::vector<ItemId> needs_copy;
    uint32_t lock_waits_pending = 0;
  };

  // State of a transaction this site participates in.
  struct Participation {
    TxnId txn = 0;
    SiteId coordinator = kInvalidSite;
    uint64_t attempt = 0;  // the Prepare's (PrepareArgs::attempt)
    TimePoint start_time = 0;
    std::vector<ItemWrite> staged;  // writes of items this site holds
    // The transaction's participant set from the prepare, for commit-time
    // fail-lock maintenance (holders outside it missed the write).
    std::vector<SiteId> participants;
    TimerId timer = kInvalidTimer;
    // Locking extension: queued exclusive-lock requests still outstanding
    // before the prepare-ack can be sent.
    uint32_t lock_waits_pending = 0;
  };

  // State of an in-flight control-type-1 recovery at this site.
  struct Recovery {
    SessionNumber new_session = 0;
    TimePoint start_time = 0;
    std::set<SiteId> awaiting;
    std::vector<RecoveryInfoArgs> infos;
    /// Journal of fail-lock bits written at this site during the
    /// waiting-to-recover window (a commit or clear-fail-locks processed
    /// after the announce but before completion), keyed by (item, site),
    /// last write wins. CompleteRecovery replays it over the installed
    /// union of the responders' tables: the responders snapshotted their
    /// tables at announce time, so without the replay a window update
    /// would be silently forgotten.
    std::map<std::pair<ItemId, SiteId>, bool> window_journal;
    TimerId timer = kInvalidTimer;
  };

  // ---- coordinator role -------------------------------------------------
  void HandleTxnRequest(const Message& msg);
  /// Locking extension: acquires the coordinator's local locks (shared for
  /// pure reads, exclusive for writes and stale reads), then continues to
  /// the copier phase / execution once all are granted.
  /// `read_set` and `write_set` are the transaction's declared sets, as
  /// HandleTxnRequest validated them.
  void AcquireCoordinatorLocks(Coordination& c,
                               const std::vector<ItemId>& read_set,
                               const std::vector<ItemId>& write_set);
  void OnCoordinatorLockGranted(TxnId txn);
  /// Runs after local locks are held (or immediately when locking is off).
  void ProceedAfterLocks(Coordination& c);
  void StartCopierPhase(Coordination& c, const std::vector<ItemId>& needed);
  void HandleCopyReply(const Message& msg);
  void FinishCopierPhase(Coordination& c);
  void ExecuteAndPrepare(Coordination& c);
  void HandlePrepareAck(const Message& msg);
  void StartCommitPhase(Coordination& c);
  void HandleCommitAck(const Message& msg);
  void FinishCommit(Coordination& c);
  void CoordinationTimeout(TxnId txn);

  /// Tears the coordination down: releases locks, cancels timers, replies
  /// to the client, erases it from coords_ (or resets batch_) and serves
  /// the queue. `c` is invalid on return.
  void ReplyAndClear(Coordination& c, TxnOutcome outcome);

  // ---- participant role --------------------------------------------------
  void HandlePrepare(const Message& msg);
  void HandleCommit(const Message& msg);
  void HandleAbort(const Message& msg);
  void ParticipationTimeout(TxnId txn);
  void OnParticipantLockGranted(TxnId txn);
  void SendPrepareAck(Participation& part);

  /// Runs when an executor slot frees up: serves queued requests while
  /// slots are free, then lets step-two batch copiers proceed.
  void OnExecutorIdle();

  /// Resolves an in-flight coordination by transaction id: a client
  /// coordination from coords_, or the batch refresh (its copier traffic
  /// carries the batch's pseudo transaction id).
  Coordination* CoordinationFor(TxnId txn);

  // ---- services -----------------------------------------------------------
  void HandleCopyRequest(const Message& msg);
  void HandleClearFailLocks(const Message& msg);

  // ---- control transactions ------------------------------------------------
  void HandleRecoveryAnnounce(const Message& msg);
  /// Rows served in a recovery info reply: the fail-lock table with the
  /// commit-time maintenance of every transaction still in 2PC here
  /// applied prospectively. A transaction whose prepare predates the
  /// announce commits with its pre-recovery participant set, so its
  /// maintenance runs after this snapshot — possibly after the recovering
  /// site already completed — and the plain table would serve rows the
  /// commit immediately invalidates in both directions: missing set bits
  /// (the recovering site's copy missed the write but its own table says
  /// clean — a read-safety hole) and soon-stale ones (a bit the commit
  /// clears at every participant survives only in the recovered table).
  /// Abort-safe: a prospective set is cleared by the site's first refresh,
  /// and a prospective clear of (item, t) leaves t's own bit intact, so t
  /// still refuses to serve its stale copy (HandleCopyRequest). The one
  /// exception is t == recovering itself — the served row becomes that
  /// site's own table, so its own column is never prospectively cleared
  /// (an aborted commit would otherwise leave a stale copy unlocked).
  std::vector<FailLockRow> RecoveryInfoRows(SiteId recovering) const;
  void HandleRecoveryInfo(const Message& msg);
  void RecoveryTimeout();
  void CompleteRecovery();
  void HandleFailureAnnounce(const Message& msg);
  void RunControlType2(const std::vector<SiteId>& failed);
  void HandleCopyCreate(const Message& msg);
  void MaybeRunType3();

  // ---- shared helpers --------------------------------------------------------
  /// Installs committed writes locally and maintains fail-locks keyed on
  /// the transaction's participant set (the paper folds fail-lock
  /// maintenance into the commitment of data copies). `participants` is
  /// the commit's participant set including the coordinator; holders
  /// outside it missed the write and get the bit, holders inside it get it
  /// cleared. Keying on the set — identical at every participant by
  /// construction — rather than on each site's believed-up view keeps the
  /// written rows convergent even when views are skewed.
  void CommitLocalWrites(TxnId writer, const std::vector<ItemWrite>& writes,
                         const std::vector<SiteId>& participants);

  /// True when a transaction with this write set finishes at phase one:
  /// under kTwoPhaseLocking a read-only transaction gets R*'s read-only
  /// vote. Its participants stage, lock and maintain nothing, so a commit
  /// round would carry no work; they ack the Prepare without keeping any
  /// state, and the coordinator commits at the last ack. kSerial keeps
  /// Appendix A's two rounds for every transaction (Experiment 1's cost
  /// model was fitted to them). Both sides decide from the Prepare's own
  /// write set and the shared options, so they always agree.
  bool FinishesAtPhaseOne(const std::vector<ItemWrite>& writes) const {
    return writes.empty() && options_.concurrency.locking();
  }

  /// Applies one fail-lock bit mutation, journaling it when a recovery
  /// window is open (see Recovery::window_journal). Returns true if the
  /// table changed.
  bool SetFailLock(ItemId item, SiteId site);
  bool ClearFailLock(ItemId item, SiteId site);

  /// Operational database sites other than this one, per the local vector.
  std::vector<SiteId> OperationalPeers() const;

  /// Chooses a copy source for `item`: the lowest-id operational peer that
  /// holds an up-to-date copy per the local tables; kInvalidSite if none.
  SiteId PickCopySource(ItemId item) const;

  /// Step-two recovery: proactively refresh remaining fail-locked copies
  /// when idle and below the threshold.
  void MaybeStartBatchCopier();

  void Charge(Duration amount) { runtime_->ChargeCpu(amount); }
  void SendTo(SiteId to, Payload payload);
  /// Sends `payload` to each site of `to` in order, charging
  /// `cost_per_send` before each send. The message is built once; only
  /// its destination changes between sends.
  void SendTo(const std::vector<SiteId>& to, Duration cost_per_send,
              Payload payload);

  void Trace(TraceEvent event, uint64_t a = 0, uint64_t b = 0) {
    if (options_.trace != nullptr) {
      options_.trace->Record(runtime_->Now(), id_, event, a, b);
    }
  }

  const SiteId id_;
  const SiteOptions options_;
  Transport* const transport_;
  SiteRuntime* const runtime_;

  SiteStatus status_ = SiteStatus::kUp;
  Database db_;
  /// Used only under ConcurrencyOptions::mode == kTwoPhaseLocking.
  LockManager lock_manager_;
  SessionVector session_vector_;
  FailLockTable fail_locks_;
  HoldersTable holders_;
  SiteCounters counters_;

  /// In-flight coordinations keyed by transaction id, bounded by
  /// ConcurrencyOptions::EffectiveExecutors() (1 under serial mode). All
  /// of them interleave in this site's one execution context — an
  /// "executor" is an in-flight coordination, not a thread — so every
  /// event (including commit-time fail-lock maintenance) is atomic with
  /// respect to the others.
  std::map<TxnId, Coordination> coords_;
  /// A step-two batch copier refresh. Kept out of coords_ and only
  /// started when the site is fully idle: batch refreshes predate the
  /// locking layer and run with the site to themselves, which keeps
  /// their no-2PC copier traffic out of the lock order.
  std::optional<Coordination> batch_;
  std::deque<Message> queued_requests_;
  /// In-flight participations keyed by transaction id. Multiple
  /// coordinators may have transactions staged here concurrently; each
  /// site's own execution remains serial (one event at a time).
  std::map<TxnId, Participation> participations_;
  std::optional<Recovery> recovery_;
  /// The last Coordination::attempt handed out. Never reset, not even by
  /// a crash, so a number names one coordination at this site.
  uint64_t last_attempt_ = 0;

  /// Bound on the coordinator request queue; beyond it requests are
  /// dropped and the client times out.
  static constexpr size_t kMaxQueuedRequests = 64;
  /// Set by a lose-state crash; consumed by the next CompleteRecovery.
  bool state_lost_ = false;
};

}  // namespace miniraid

#endif  // MINIRAID_REPLICATION_SITE_H_

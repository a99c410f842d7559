#ifndef MINIRAID_REPLICATION_COUNTERS_H_
#define MINIRAID_REPLICATION_COUNTERS_H_

#include <cstdint>

#include "metrics/stats.h"

namespace miniraid {

/// Per-site event counts and timing distributions, the raw material of the
/// paper's three experiments. Counters accumulate from site construction;
/// drivers snapshot/diff them between measurement windows.
struct SiteCounters {
  // -- transactions coordinated by this site -----------------------------
  uint64_t txns_coordinated = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted_copier = 0;       // no up-to-date copy reachable
  uint64_t txns_aborted_participant = 0;  // participant failed in phase one
  uint64_t txns_aborted_lock_conflict = 0;  // wait-die (locking extension)
  uint64_t lock_waits = 0;                // lock requests that had to queue
  uint64_t lock_rejections = 0;           // wait-die refusals at this site
  // High-water mark of concurrently in-flight coordinations at this site
  // (1 under serial mode; up to ConcurrencyOptions::max_executors under
  // two-phase locking).
  uint64_t max_concurrent_coordinations = 0;

  // Always 0: nothing counts them. Kept only because e2ebench/runner.cc
  // reads both.
  uint64_t batch_rounds_coordinated = 0;
  uint64_t batch_members_coordinated = 0;

  // -- copier machinery ---------------------------------------------------
  uint64_t copier_transactions = 0;      // copy requests issued on demand
  uint64_t batch_copier_transactions = 0;  // step-two proactive copiers
  uint64_t copy_requests_served = 0;
  uint64_t clear_lock_txns_sent = 0;     // special transactions initiated
  uint64_t clear_lock_txns_received = 0;

  // -- fail-lock bit transitions (state changes, not re-writes) ----------
  uint64_t fail_locks_set = 0;
  uint64_t fail_locks_cleared = 0;

  // -- control transactions ----------------------------------------------
  uint64_t control1_initiated = 0;  // recoveries started by this site
  uint64_t control1_served = 0;     // recovery announcements answered
  uint64_t control2_initiated = 0;  // failures this site detected/announced
  uint64_t control2_received = 0;
  uint64_t control3_initiated = 0;  // backup copies this site created
  uint64_t control3_copies_installed = 0;

  // -- participant role ----------------------------------------------------
  uint64_t prepares_handled = 0;
  // Commit decisions applied here. Excludes read-only transactions under
  // two-phase locking, which finish at phase one with no Commit (see
  // Site::FinishesAtPhaseOne).
  uint64_t commits_handled = 0;
  uint64_t aborts_handled = 0;
  uint64_t coordinator_failures_detected = 0;
  // Prepares refused because this participant's session vector recorded a
  // strictly newer session than the coordinator's piggybacked one
  // (commit-time session-vector validation).
  uint64_t prepare_session_vetoes = 0;

  // -- recovery edge cases -------------------------------------------------
  // Fail-lock mutations journaled during the waiting-to-recover window and
  // replayed over the installed tables at completion.
  uint64_t recovery_window_replays = 0;
  // Recoveries that completed with zero info replies and conservatively
  // fail-locked every held copy.
  uint64_t recovery_blind_completions = 0;

  // -- duplicate tolerance -------------------------------------------------
  // Messages recognized as protocol-level duplicates and ignored or
  // re-acked without side effects (duplicate Prepare / CommitDecision /
  // RecoveryInfo / TxnRequest and friends).
  uint64_t duplicate_msgs_ignored = 0;

  // -- timing distributions (virtual time under the simulator) ------------
  DurationStats coord_txn_time;        // TxnRequest received -> reply sent
  DurationStats coord_txn_copier_time;  // same, txns that ran >= 1 copier
  // Prepare received -> CommitAck sent; no sample for a read-only
  // transaction under two-phase locking (it has no Commit).
  DurationStats participant_time;
  DurationStats recovery_time;         // type 1 at the recovering site
  DurationStats type1_serve_time;      // type 1 at an operational site
  DurationStats type2_receive_time;    // type 2 processing at a receiver
  DurationStats copy_serve_time;       // copy request service
  DurationStats clear_locks_time;      // special-transaction processing

  // -- per-2PC-phase latency (coordinator side, committed txns) ------------
  DurationStats phase_copier_time;   // copier phase start -> all copies in
  DurationStats phase_prepare_time;  // Prepares sent -> all acks in
  // CommitDecisions sent -> all acks in; no sample for a read-only
  // transaction under two-phase locking (it commits at phase one).
  DurationStats phase_commit_time;
};

}  // namespace miniraid

#endif  // MINIRAID_REPLICATION_COUNTERS_H_

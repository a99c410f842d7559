#ifndef MINIRAID_TXN_TRANSACTION_H_
#define MINIRAID_TXN_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace miniraid {

/// One read or write of a single data item (the paper's definition of an
/// operation: "a read or write of a database data item").
struct Operation {
  enum class Kind : uint8_t { kRead = 0, kWrite = 1 };

  Kind kind = Kind::kRead;
  ItemId item = 0;
  /// For writes: the value the transaction installs. Generated
  /// deterministically from (txn id, item) by the workloads so that replica
  /// agreement is checkable bit-for-bit.
  Value value = 0;

  static Operation Read(ItemId item) {
    return Operation{Kind::kRead, item, 0};
  }
  static Operation Write(ItemId item, Value value) {
    return Operation{Kind::kWrite, item, value};
  }

  bool is_read() const { return kind == Kind::kRead; }
  bool is_write() const { return kind == Kind::kWrite; }

  friend bool operator==(const Operation& a, const Operation& b) {
    return a.kind == b.kind && a.item == b.item && a.value == b.value;
  }
};

/// A database transaction as submitted by the managing site: an identifier
/// plus an ordered list of operations. Under the default serial execution
/// (paper assumption 2) no isolation metadata is needed; under two-phase
/// locking the coordinator acquires locks up front from the declared
/// read/write sets (explicit if given, otherwise derived from `ops`).
struct TxnSpec {
  TxnId id = 0;
  std::vector<Operation> ops;

  /// Optional declared access sets for lock acquisition. Empty = derive
  /// from `ops`. A declaration may be a superset of what `ops` touches
  /// (conservative locking) but must not be a subset: the engine locks
  /// exactly what is declared, so an undeclared access would run unlocked.
  std::vector<ItemId> declared_reads;
  std::vector<ItemId> declared_writes;

  /// Distinct items read by the transaction, in first-occurrence order
  /// (`declared_reads` when non-empty, otherwise derived from `ops`).
  std::vector<ItemId> ReadSet() const;
  /// Distinct items written by the transaction, in first-occurrence order
  /// (`declared_writes` when non-empty, otherwise derived from `ops`).
  std::vector<ItemId> WriteSet() const;

  /// True if any operation touches `item`.
  bool Touches(ItemId item) const;

  std::string ToString() const;

  friend bool operator==(const TxnSpec& a, const TxnSpec& b) {
    return a.id == b.id && a.ops == b.ops &&
           a.declared_reads == b.declared_reads &&
           a.declared_writes == b.declared_writes;
  }
};

/// Terminal outcome of a database transaction, reported back to the
/// managing site.
enum class TxnOutcome : uint8_t {
  kCommitted = 0,
  /// Aborted because a copier transaction could not obtain an up-to-date
  /// copy (no operational site holds one) — the paper's Experiment 3
  /// scenario-1 abort cause.
  kAbortedCopierFailed = 1,
  /// Aborted because a participant failed during phase one of 2PC.
  kAbortedParticipantFailed = 2,
  /// Aborted because the coordinator considered itself non-operational.
  kAbortedCoordinatorDown = 3,
  /// The managing site timed out waiting for the coordinator (coordinator
  /// crashed mid-transaction).
  kCoordinatorUnreachable = 4,
  /// Rejected before execution: the transaction referenced items outside
  /// the database.
  kRejectedInvalid = 5,
  /// Aborted by wait-die (the concurrency-control extension): a younger
  /// transaction conflicted with an older one's locks. Safe to retry.
  kAbortedLockConflict = 6,
  /// Aborted by commit-time session-vector validation: a participant knew
  /// a strictly newer session for some site than the coordinator, so the
  /// participant set was chosen under stale membership. The coordinator
  /// has merged the participant's vector; safe to retry.
  kAbortedStaleView = 7,
};

std::string_view TxnOutcomeName(TxnOutcome outcome);

/// True for aborts caused by transient scheduling conflicts (wait-die
/// lock conflicts, stale membership views): re-submitting the same
/// transaction unchanged may succeed.
/// False for kCommitted and for aborts that need operator/system action.
bool IsRetryableAbort(TxnOutcome outcome);

/// Deterministic value a workload writes for (txn, item); also used by the
/// test oracles to predict the final database state.
Value WriteValueFor(TxnId txn, ItemId item);

}  // namespace miniraid

#endif  // MINIRAID_TXN_TRANSACTION_H_

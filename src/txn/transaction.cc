#include "txn/transaction.h"

#include <algorithm>

#include "common/strings.h"

namespace miniraid {
namespace {

std::vector<ItemId> DistinctItems(const std::vector<Operation>& ops,
                                  Operation::Kind kind) {
  std::vector<ItemId> out;
  for (const Operation& op : ops) {
    if (op.kind != kind) continue;
    if (std::find(out.begin(), out.end(), op.item) == out.end()) {
      out.push_back(op.item);
    }
  }
  return out;
}

}  // namespace

std::vector<ItemId> TxnSpec::ReadSet() const {
  if (!declared_reads.empty()) return declared_reads;
  return DistinctItems(ops, Operation::Kind::kRead);
}

std::vector<ItemId> TxnSpec::WriteSet() const {
  if (!declared_writes.empty()) return declared_writes;
  return DistinctItems(ops, Operation::Kind::kWrite);
}

bool TxnSpec::Touches(ItemId item) const {
  return std::any_of(ops.begin(), ops.end(),
                     [item](const Operation& op) { return op.item == item; });
}

std::string TxnSpec::ToString() const {
  std::string out = StrFormat("txn %llu {", (unsigned long long)id);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i) out += ", ";
    const Operation& op = ops[i];
    if (op.is_read()) {
      out += StrFormat("R(%u)", op.item);
    } else {
      out += StrFormat("W(%u=%lld)", op.item, (long long)op.value);
    }
  }
  out += "}";
  return out;
}

std::string_view TxnOutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "Committed";
    case TxnOutcome::kAbortedCopierFailed:
      return "AbortedCopierFailed";
    case TxnOutcome::kAbortedParticipantFailed:
      return "AbortedParticipantFailed";
    case TxnOutcome::kAbortedCoordinatorDown:
      return "AbortedCoordinatorDown";
    case TxnOutcome::kCoordinatorUnreachable:
      return "CoordinatorUnreachable";
    case TxnOutcome::kRejectedInvalid:
      return "RejectedInvalid";
    case TxnOutcome::kAbortedLockConflict:
      return "AbortedLockConflict";
    case TxnOutcome::kAbortedStaleView:
      return "AbortedStaleView";
  }
  return "Unknown";
}

bool IsRetryableAbort(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kAbortedLockConflict:
    case TxnOutcome::kAbortedStaleView:
      return true;
    default:
      return false;
  }
}

Value WriteValueFor(TxnId txn, ItemId item) {
  // SplitMix64-style mix of (txn, item); any fixed injective-ish function
  // works, the tests only require determinism.
  uint64_t z = txn * 0x9e3779b97f4a7c15ULL + item;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<Value>(z & 0x7fffffffffffffffULL);
}

}  // namespace miniraid

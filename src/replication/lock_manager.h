#ifndef MINIRAID_REPLICATION_LOCK_MANAGER_H_
#define MINIRAID_REPLICATION_LOCK_MANAGER_H_

#include <functional>
#include <vector>

#include "common/flat_index.h"
#include "common/types.h"

namespace miniraid {

/// Per-site item lock manager for the two-phase-locking execution mode
/// (ConcurrencyOptions::mode == kTwoPhaseLocking): shared locks for a
/// coordinator's reads, exclusive locks for writes (acquired at every
/// participant through phase one of 2PC) and for copier refreshes. Locks
/// are strict — held through commit — so fail-lock maintenance inside the
/// commit step can never race a concurrent executor on the same item.
///
/// Deadlocks are avoided by wait-die (Rosenkrantz, Stearns & Lewis, 1978)
/// on transaction ids: an older requester (smaller TxnId) waits for a
/// conflicting holder, a younger one is rejected at request time
/// (kRejected). Grants from the queue are FIFO. No cycle can form: every
/// wait edge points old -> young, and a site enqueues one transaction's
/// whole lock set in a single event, so queue order is consistent across
/// items. Wait-die never aborts a holder, so a transaction needs no mark
/// for having passed its point of no return.
///
/// Every transaction keeps a list of the items it holds or waits for, so
/// the cost of ReleaseAll follows the transaction's own lock set, not the
/// number of items locked at the site. Item and transaction entries are
/// pooled and found through FlatIndex, so a steady stream of transactions
/// that never queue allocates nothing.
///
/// Single-threaded per the site's execution context. Grant callbacks fire
/// synchronously from ReleaseAll, never from Acquire.
class LockManager {
 public:
  enum class Mode : uint8_t { kShared = 0, kExclusive = 1 };

  enum class Outcome : uint8_t {
    kGranted,   // lock held; proceed now
    kQueued,    // on_grant will fire when the conflict clears
    kRejected,  // wait-die: requester is younger than a holder
  };

  /// Requests `mode` on `item` for `txn`. Re-entrant: a holder re-acquiring
  /// (or upgrading shared->exclusive when it is the only holder) is granted.
  /// `on_grant` is invoked exactly once if and when a kQueued request is
  /// eventually granted; it must not be null for queued requests.
  Outcome Acquire(ItemId item, TxnId txn, Mode mode,
                  std::function<void()> on_grant);

  /// Releases every lock `txn` holds and cancels its queued requests,
  /// then regrants the affected items in ascending item order (grant
  /// callbacks fire before return). Costs O(k log k) for the k items on
  /// `txn`'s own list, plus the holders and queue of each of those items;
  /// items `txn` never touched are not visited.
  void ReleaseAll(TxnId txn);

  bool Holds(ItemId item, TxnId txn) const;
  /// Locks currently held (any mode) on `item`.
  size_t HolderCount(ItemId item) const;
  /// Queued (not yet granted) requests on `item`.
  size_t QueueLength(ItemId item) const;
  /// Total held locks across all items (for tests / leak checks).
  size_t TotalHeld() const;

 private:
  struct Waiter {
    TxnId txn;
    Mode mode;
    std::function<void()> on_grant;
  };

  /// One locked item. Entries are pooled: a freed entry keeps the
  /// capacity of its vectors for the next item that uses its slot.
  struct ItemLocks {
    Mode mode = Mode::kShared;
    /// Ascending, so membership is a binary search.
    std::vector<TxnId> holders;
    /// FIFO arrival order.
    std::vector<Waiter> queue;
  };

  /// One transaction with locks at this site. Pooled like ItemLocks.
  struct TxnLocks {
    /// Items `txn` holds or waits for, in request order. An item appears
    /// once per request that did not find `txn` already holding it.
    std::vector<ItemId> items;
  };

  ItemLocks* FindItem(ItemId item);
  const ItemLocks* FindItem(ItemId item) const;
  /// The entry of `item`, created empty if the item has none.
  ItemLocks& ItemEntry(ItemId item);
  /// Returns an entry with no holders and no waiters to the pool.
  void FreeItem(ItemId item);
  /// The entry of `txn`, created empty if the transaction has none.
  TxnLocks& TxnEntry(TxnId txn);

  void GrantFromQueue(ItemId item);

  FlatIndex item_index_;  // item -> slot in items_
  std::vector<ItemLocks> items_;
  std::vector<uint32_t> free_items_;
  FlatIndex txn_index_;  // txn -> slot in txns_
  std::vector<TxnLocks> txns_;
  std::vector<uint32_t> free_txns_;
  /// Spare buffers that ReleaseAll and GrantFromQueue borrow for their
  /// work lists and hand back when done; grant callbacks may re-enter
  /// either, so a nested call simply finds the spare already taken.
  std::vector<ItemId> spare_items_;
  std::vector<std::function<void()>> spare_callbacks_;
};

}  // namespace miniraid

#endif  // MINIRAID_REPLICATION_LOCK_MANAGER_H_

#include "replication/lock_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace miniraid {

LockManager::Outcome LockManager::Acquire(ItemId item, TxnId txn, Mode mode,
                                          std::function<void()> on_grant) {
  ItemLocks& locks = ItemEntry(item);
  std::vector<TxnId>& holders = locks.holders;
  const auto pos = std::lower_bound(holders.begin(), holders.end(), txn);
  const bool holder = pos != holders.end() && *pos == txn;

  if (holders.empty()) {
    locks.mode = mode;
    holders.push_back(txn);
    TxnEntry(txn).items.push_back(item);
    return Outcome::kGranted;
  }

  if (holder) {
    // Re-entrant acquisition. Shared -> exclusive upgrades succeed only
    // for a sole holder; otherwise treat like any conflicting request.
    if (mode == Mode::kShared || locks.mode == Mode::kExclusive) {
      return Outcome::kGranted;
    }
    if (holders.size() == 1) {
      locks.mode = Mode::kExclusive;
      return Outcome::kGranted;
    }
    // Fall through: upgrade conflicts with the other shared holders.
  }

  const bool compatible = mode == Mode::kShared &&
                          locks.mode == Mode::kShared &&
                          locks.queue.empty();  // no writer starvation
  if (compatible) {
    holders.insert(pos, txn);
    TxnEntry(txn).items.push_back(item);
    return Outcome::kGranted;
  }

  // Wait-die: wait only if older (smaller id) than every conflicting
  // holder; a younger requester dies so no cycle can form.
  for (const TxnId other : holders) {
    if (other == txn) continue;
    if (txn > other) return Outcome::kRejected;
  }
  MR_CHECK(on_grant != nullptr) << "queued lock request needs a callback";
  locks.queue.push_back(Waiter{txn, mode, std::move(on_grant)});
  // A holder's queued upgrade is already on its list.
  if (!holder) TxnEntry(txn).items.push_back(item);
  return Outcome::kQueued;
}

void LockManager::GrantFromQueue(ItemId item) {
  ItemLocks* found = FindItem(item);
  if (found == nullptr) return;
  ItemLocks& locks = *found;
  std::vector<TxnId>& holders = locks.holders;
  // Grant in FIFO order while compatible: one exclusive waiter alone, or a
  // run of shared waiters.
  std::vector<std::function<void()>> callbacks = std::move(spare_callbacks_);
  while (!locks.queue.empty()) {
    Waiter& next = locks.queue.front();
    const auto pos = std::lower_bound(holders.begin(), holders.end(), next.txn);
    const bool holder = pos != holders.end() && *pos == next.txn;
    const bool sole_holder_upgrade = holders.size() == 1 && holder;
    const bool can_grant =
        holders.empty() || sole_holder_upgrade ||
        (next.mode == Mode::kShared && locks.mode == Mode::kShared);
    if (!can_grant) break;
    locks.mode =
        (holders.empty() || sole_holder_upgrade) ? next.mode : locks.mode;
    if (!holder) holders.insert(pos, next.txn);
    callbacks.push_back(std::move(next.on_grant));
    locks.queue.erase(locks.queue.begin());
    if (locks.mode == Mode::kExclusive) break;
  }
  if (holders.empty() && locks.queue.empty()) FreeItem(item);
  for (auto& callback : callbacks) callback();
  callbacks.clear();
  spare_callbacks_ = std::move(callbacks);
}

void LockManager::ReleaseAll(TxnId txn) {
  const uint32_t* found = txn_index_.Find(txn);
  if (found == nullptr) return;
  const uint32_t slot = *found;
  // Take the item list and leave the spare buffer in the freed entry, so
  // the next transaction in this slot lists its items without allocating.
  std::vector<ItemId> affected = std::move(spare_items_);
  affected.swap(txns_[slot].items);
  txn_index_.Erase(txn);
  free_txns_.push_back(slot);

  // Leave every item first, then regrant in ascending item order: grant
  // callbacks may re-enter Acquire, and the checker's fingerprints rely
  // on this order.
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (const ItemId item : affected) {
    ItemLocks* locks = FindItem(item);
    if (locks == nullptr) continue;
    std::vector<TxnId>& holders = locks->holders;
    const auto pos = std::lower_bound(holders.begin(), holders.end(), txn);
    if (pos != holders.end() && *pos == txn) holders.erase(pos);
    locks->queue.erase(
        std::remove_if(locks->queue.begin(), locks->queue.end(),
                       [txn](const Waiter& waiter) { return waiter.txn == txn; }),
        locks->queue.end());
  }
  for (const ItemId item : affected) GrantFromQueue(item);
  affected.clear();
  spare_items_ = std::move(affected);
}

LockManager::ItemLocks* LockManager::FindItem(ItemId item) {
  const uint32_t* slot = item_index_.Find(item);
  return slot == nullptr ? nullptr : &items_[*slot];
}

const LockManager::ItemLocks* LockManager::FindItem(ItemId item) const {
  const uint32_t* slot = item_index_.Find(item);
  return slot == nullptr ? nullptr : &items_[*slot];
}

LockManager::ItemLocks& LockManager::ItemEntry(ItemId item) {
  if (const uint32_t* slot = item_index_.Find(item)) return items_[*slot];
  uint32_t slot = static_cast<uint32_t>(items_.size());
  if (!free_items_.empty()) {
    slot = free_items_.back();
    free_items_.pop_back();
  } else {
    items_.emplace_back();
  }
  item_index_.Insert(item, slot);
  return items_[slot];
}

void LockManager::FreeItem(ItemId item) {
  const uint32_t* found = item_index_.Find(item);
  if (found == nullptr) return;
  const uint32_t slot = *found;
  item_index_.Erase(item);
  free_items_.push_back(slot);
}

LockManager::TxnLocks& LockManager::TxnEntry(TxnId txn) {
  if (const uint32_t* slot = txn_index_.Find(txn)) return txns_[*slot];
  uint32_t slot = static_cast<uint32_t>(txns_.size());
  if (!free_txns_.empty()) {
    slot = free_txns_.back();
    free_txns_.pop_back();
  } else {
    txns_.emplace_back();
  }
  txn_index_.Insert(txn, slot);
  return txns_[slot];
}

bool LockManager::Holds(ItemId item, TxnId txn) const {
  const ItemLocks* locks = FindItem(item);
  return locks != nullptr && std::binary_search(locks->holders.begin(),
                                                locks->holders.end(), txn);
}

size_t LockManager::HolderCount(ItemId item) const {
  const ItemLocks* locks = FindItem(item);
  return locks == nullptr ? 0 : locks->holders.size();
}

size_t LockManager::QueueLength(ItemId item) const {
  const ItemLocks* locks = FindItem(item);
  return locks == nullptr ? 0 : locks->queue.size();
}

size_t LockManager::TotalHeld() const {
  size_t total = 0;
  for (const ItemLocks& locks : items_) total += locks.holders.size();
  return total;
}

}  // namespace miniraid

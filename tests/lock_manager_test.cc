#include "replication/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "allocation_counter.h"

namespace miniraid {
namespace {

using Mode = LockManager::Mode;
using Outcome = LockManager::Outcome;

TEST(LockManagerTest, GrantsFreeLocks) {
  LockManager lm;
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  EXPECT_TRUE(lm.Holds(1, 10));
  EXPECT_EQ(lm.TotalHeld(), 1u);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 20, Mode::kShared, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.HolderCount(1), 2u);
}

TEST(LockManagerTest, ReentrantAcquisition) {
  LockManager lm;
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.HolderCount(1), 1u);
}

TEST(LockManagerTest, SoleSharedHolderUpgrades) {
  LockManager lm;
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  // Now exclusive: another shared request from an older txn queues.
  bool granted = false;
  EXPECT_EQ(lm.Acquire(1, 5, Mode::kShared, [&granted] { granted = true; }),
            Outcome::kQueued);
  lm.ReleaseAll(10);
  EXPECT_TRUE(granted);
}

TEST(LockManagerTest, QueuedUpgradeGrantsWhenSoleHolderRemains) {
  // txn 5 holds shared alongside txn 10 and queues an upgrade; when 10
  // releases, 5 is the sole remaining holder and the upgrade must grant
  // (a naive grant loop would stall: holders is non-empty). 5 is older
  // than 10, so wait-die lets it queue.
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kShared, nullptr), Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  bool upgraded = false;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kExclusive, [&upgraded] { upgraded = true; }),
            Outcome::kQueued);
  lm.ReleaseAll(10);
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(lm.Holds(1, 5));
  EXPECT_EQ(lm.HolderCount(1), 1u);
}

TEST(LockManagerTest, WaitDieOlderWaitsYoungerDies) {
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  // Younger (larger id) conflicting requester dies immediately.
  EXPECT_EQ(lm.Acquire(1, 20, Mode::kExclusive, nullptr), Outcome::kRejected);
  EXPECT_EQ(lm.Acquire(1, 20, Mode::kShared, nullptr), Outcome::kRejected);
  // Older (smaller id) requester waits.
  bool granted = false;
  EXPECT_EQ(lm.Acquire(1, 5, Mode::kExclusive, [&granted] { granted = true; }),
            Outcome::kQueued);
  EXPECT_FALSE(granted);
  lm.ReleaseAll(10);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(lm.Holds(1, 5));
}

TEST(LockManagerTest, FifoGrantOfQueuedWaiters) {
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 30, Mode::kExclusive, nullptr), Outcome::kGranted);
  std::vector<int> order;
  ASSERT_EQ(
      lm.Acquire(1, 10, Mode::kExclusive, [&order] { order.push_back(10); }),
      Outcome::kQueued);
  ASSERT_EQ(
      lm.Acquire(1, 20, Mode::kExclusive, [&order] { order.push_back(20); }),
      Outcome::kQueued);
  lm.ReleaseAll(30);
  // Only the first waiter gets the exclusive lock.
  EXPECT_EQ(order, (std::vector<int>{10}));
  lm.ReleaseAll(10);
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
}

TEST(LockManagerTest, SharedWaitersGrantTogether) {
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 30, Mode::kExclusive, nullptr), Outcome::kGranted);
  int granted = 0;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kShared, [&granted] { ++granted; }),
            Outcome::kQueued);
  ASSERT_EQ(lm.Acquire(1, 20, Mode::kShared, [&granted] { ++granted; }),
            Outcome::kQueued);
  lm.ReleaseAll(30);
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(lm.HolderCount(1), 2u);
}

TEST(LockManagerTest, QueuedSharedBlocksLaterSharedBehindWriter) {
  // No writer starvation: once an exclusive waiter queues, later shared
  // requests conflict (they must queue or die).
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  bool writer_granted = false;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kExclusive,
                       [&writer_granted] { writer_granted = true; }),
            Outcome::kQueued);
  // Younger shared requester dies rather than jumping the writer.
  EXPECT_EQ(lm.Acquire(1, 20, Mode::kShared, nullptr), Outcome::kRejected);
  lm.ReleaseAll(10);
  EXPECT_TRUE(writer_granted);
}

TEST(LockManagerTest, ReleaseCancelsQueuedRequests) {
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kExclusive, nullptr), Outcome::kGranted);
  bool granted = false;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kExclusive, [&granted] { granted = true; }),
            Outcome::kQueued);
  lm.ReleaseAll(5);  // the waiter gives up (abort path)
  lm.ReleaseAll(10);
  EXPECT_FALSE(granted);
  EXPECT_EQ(lm.TotalHeld(), 0u);
}

TEST(LockManagerTest, ReleaseAllCoversManyItems) {
  LockManager lm;
  for (ItemId item = 0; item < 5; ++item) {
    ASSERT_EQ(lm.Acquire(item, 7, Mode::kExclusive, nullptr),
              Outcome::kGranted);
  }
  EXPECT_EQ(lm.TotalHeld(), 5u);
  lm.ReleaseAll(7);
  EXPECT_EQ(lm.TotalHeld(), 0u);
}

TEST(LockManagerTest, ReleasingQueuedWriterUnblocksSharedFollowers) {
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(2, 5, Mode::kExclusive, nullptr), Outcome::kGranted);
  // txn 5 queues an exclusive on item 1; txn 7's shared dams up behind it.
  // Both are older than the holder, txn 10, so both wait.
  bool writer_granted = false;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kExclusive,
                       [&writer_granted] { writer_granted = true; }),
            Outcome::kQueued);
  bool late_shared = false;
  ASSERT_EQ(lm.Acquire(1, 7, Mode::kShared,
                       [&late_shared] { late_shared = true; }),
            Outcome::kQueued);
  lm.ReleaseAll(5);
  // Dropping the exclusive waiter lets the compatible shared run through
  // to join txn 10; txn 5's lock on item 2 is gone with it.
  EXPECT_TRUE(late_shared);
  EXPECT_FALSE(writer_granted);
  EXPECT_EQ(lm.HolderCount(1), 2u);
  EXPECT_TRUE(lm.Holds(1, 7));
  EXPECT_EQ(lm.QueueLength(1), 0u);
  EXPECT_FALSE(lm.Holds(2, 5));
  EXPECT_EQ(lm.HolderCount(2), 0u);
}

TEST(LockManagerTest, ReleaseAllRegrantsInAscendingItemOrder) {
  // Whatever order txn 100 took its locks in, its release grants the
  // (older) waiters item by item in ascending order.
  LockManager lm;
  const std::vector<ItemId> taken = {30, 10, 40, 20};
  for (ItemId item : taken) {
    ASSERT_EQ(lm.Acquire(item, 100, Mode::kExclusive, nullptr),
              Outcome::kGranted);
  }
  std::vector<ItemId> granted;
  TxnId waiter = 1;
  for (ItemId item : {40, 20, 30, 10}) {
    ASSERT_EQ(lm.Acquire(item, waiter++, Mode::kExclusive,
                         [&granted, item] { granted.push_back(item); }),
              Outcome::kQueued);
  }
  lm.ReleaseAll(100);
  EXPECT_EQ(granted, (std::vector<ItemId>{10, 20, 30, 40}));
  EXPECT_EQ(lm.TotalHeld(), 4u);
}

TEST(LockManagerTest, ReleaseLeavesUnrelatedLocksIntact) {
  // 1,000 items locked by other transactions, half of them with a queued
  // request from an older transaction too; releasing one transaction
  // among them changes none.
  LockManager lm;
  constexpr ItemId kItems = 1000;
  int foreign_grants = 0;
  for (ItemId item = 0; item < kItems; ++item) {
    ASSERT_EQ(lm.Acquire(item, 5000 + item, Mode::kExclusive, nullptr),
              Outcome::kGranted);
    if (item % 2 == 0) {
      ASSERT_EQ(lm.Acquire(item, 1000 + item, Mode::kShared,
                           [&foreign_grants] { ++foreign_grants; }),
                Outcome::kQueued);
    }
  }
  for (ItemId item : {2001, 2000, 2002}) {
    ASSERT_EQ(lm.Acquire(item, 7, Mode::kExclusive, nullptr),
              Outcome::kGranted);
  }
  // txn 7 also waits behind one of the unrelated holders.
  ASSERT_EQ(lm.Acquire(3, 7, Mode::kShared, [] {}), Outcome::kQueued);
  lm.ReleaseAll(7);
  EXPECT_EQ(foreign_grants, 0);
  EXPECT_EQ(lm.TotalHeld(), size_t{kItems});
  for (ItemId item = 0; item < kItems; ++item) {
    EXPECT_TRUE(lm.Holds(item, 5000 + item)) << item;
    EXPECT_EQ(lm.HolderCount(item), 1u) << item;
    EXPECT_EQ(lm.QueueLength(item), item % 2 == 0 ? 1u : 0u) << item;
  }
  for (ItemId item : {2000, 2001, 2002}) EXPECT_EQ(lm.HolderCount(item), 0u);
}

TEST(LockManagerTest, HolderQueuedUpgradeIsReleasedOnce) {
  // txn 5 holds shared beside txn 10 and queues an upgrade; txn 3 waits
  // behind the upgrade; both are older than every holder they wait for.
  // Releasing 5 drops both its hold and its upgrade.
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kShared, nullptr), Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kShared, nullptr), Outcome::kGranted);
  int upgrades = 0;
  ASSERT_EQ(lm.Acquire(1, 5, Mode::kExclusive, [&upgrades] { ++upgrades; }),
            Outcome::kQueued);
  int writer_grants = 0;
  ASSERT_EQ(lm.Acquire(1, 3, Mode::kExclusive,
                       [&writer_grants] { ++writer_grants; }),
            Outcome::kQueued);
  lm.ReleaseAll(5);
  EXPECT_EQ(upgrades, 0);
  EXPECT_FALSE(lm.Holds(1, 5));
  EXPECT_EQ(lm.HolderCount(1), 1u);
  EXPECT_EQ(lm.QueueLength(1), 1u);  // txn 3 still waits for txn 10
  lm.ReleaseAll(5);                  // a second release finds nothing
  EXPECT_EQ(lm.QueueLength(1), 1u);
  lm.ReleaseAll(10);
  EXPECT_EQ(writer_grants, 1);
  EXPECT_TRUE(lm.Holds(1, 3));
  EXPECT_EQ(upgrades, 0);
}

TEST(LockManagerTest, SteadyStateAcquireReleaseAllocatesNothing) {
  // The per-transaction cycle of a write at a participant: three
  // exclusive locks and the release, with a grant callback that captures
  // two words as the site's do.
  LockManager lm;
  int grants = 0;
  auto cycle = [&lm, &grants](TxnId txn) {
    for (ItemId item = 0; item < 3; ++item) {
      const ItemId spread = static_cast<ItemId>((txn * 7 + item * 13) % 97);
      ASSERT_EQ(lm.Acquire(spread, txn, Mode::kExclusive,
                           [&grants, txn] { grants += int(txn % 2); }),
                Outcome::kGranted);
    }
    lm.ReleaseAll(txn);
  };
  for (TxnId txn = 1; txn <= 16; ++txn) cycle(txn);  // warm the pools
  const size_t before = allocations;
  for (TxnId txn = 17; txn <= 1016; ++txn) cycle(txn);
  EXPECT_EQ(allocations - before, 0u);
  EXPECT_EQ(lm.TotalHeld(), 0u);
  EXPECT_EQ(grants, 0);
}

// A waiter can be aborted while it waits (its coordinator's Abort, its
// own patience timer, or a wait-die refusal of another of its items) just
// as its holder releases (commit, abort, or the holder's site failing).
// The two reach the lock manager in either order and each must leave a
// consistent table.

TEST(LockManagerTest, HolderReleaseBeforeWaiterAbortGrantsOnce) {
  // Holder 20 releases first (say its site failed): the older waiter 10
  // is granted exactly once.
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 20, Mode::kExclusive, nullptr), Outcome::kGranted);
  int grants = 0;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kExclusive, [&grants] { ++grants; }),
            Outcome::kQueued);

  lm.ReleaseAll(20);  // holder release arrives first
  EXPECT_EQ(grants, 1);
  EXPECT_TRUE(lm.Holds(1, 10));
  EXPECT_EQ(lm.HolderCount(1), 1u);
}

TEST(LockManagerTest, WaiterAbortBeforeHolderReleaseNeverGrantsWaiter) {
  // The waiter's abort wins the race: its site releases 10 with
  // ReleaseAll, which dequeues it before the holder releases the lock.
  // The later ReleaseAll(30) must NOT grant 10 — its site already aborted
  // it, and a late grant callback would resurrect a dead transaction.
  LockManager lm;
  ASSERT_EQ(lm.Acquire(1, 30, Mode::kExclusive, nullptr), Outcome::kGranted);
  int grants = 0;
  ASSERT_EQ(lm.Acquire(1, 10, Mode::kExclusive, [&grants] { ++grants; }),
            Outcome::kQueued);
  // A third transaction waits behind 10; the cancel must unblock it, not
  // merely drop 10.
  int grants_20 = 0;
  ASSERT_EQ(lm.Acquire(1, 20, Mode::kExclusive, [&grants_20] { ++grants_20; }),
            Outcome::kQueued);

  lm.ReleaseAll(10);  // the waiter aborts, holding nothing
  EXPECT_EQ(grants, 0);
  EXPECT_EQ(lm.QueueLength(1), 1u);  // 20 still waits; 10 is gone

  lm.ReleaseAll(30);  // holder release arrives second
  EXPECT_EQ(grants, 0);  // 10 must stay dead
  EXPECT_EQ(grants_20, 1);
  EXPECT_TRUE(lm.Holds(1, 20));
  EXPECT_FALSE(lm.Holds(1, 10));
}

}  // namespace
}  // namespace miniraid

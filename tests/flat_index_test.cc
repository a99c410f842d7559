#include "common/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "replication/recent_outcomes.h"

namespace miniraid {
namespace {

TEST(FlatIndexTest, MatchesAMapUnderRandomChurn) {
  // Keys from a small range collide and form long probe runs, so erases
  // exercise the backward shift; the table grows several times on the way.
  FlatIndex index;
  std::unordered_map<uint64_t, uint32_t> model;
  Rng rng(7);
  for (uint32_t step = 0; step < 200000; ++step) {
    const uint64_t key = rng.NextBounded(step < 100000 ? 64 : 4096) * 1024;
    const uint32_t* found = index.Find(key);
    const auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second) << "step " << step;
    }
    if (rng.NextBounded(3) == 0 && it != model.end()) {
      ASSERT_TRUE(index.Erase(key));
      model.erase(it);
    } else if (it == model.end()) {
      index.Insert(key, step);
      model.emplace(key, step);
    }
    ASSERT_EQ(index.size(), model.size());
  }
  for (const auto& [key, value] : model) {
    const uint32_t* found = index.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
  EXPECT_FALSE(index.Erase(1));  // never inserted
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(model.begin()->first), nullptr);
}

TEST(RecentOutcomesTest, EvictsInFirstRecordedOrder) {
  RecentOutcomes outcomes;
  for (TxnId txn = 1; txn <= RecentOutcomes::kCapacity; ++txn) {
    outcomes.Record(txn, txn % 2 == 0);
  }
  // Overwriting keeps an entry's age: txn 1 is still the oldest.
  outcomes.Record(1, true);
  EXPECT_EQ(outcomes.Find(1), std::optional<bool>(true));
  outcomes.Record(1000, false);
  EXPECT_EQ(outcomes.Find(1), std::nullopt);
  EXPECT_EQ(outcomes.Find(2), std::optional<bool>(true));
  EXPECT_EQ(outcomes.Find(3), std::optional<bool>(false));
  EXPECT_EQ(outcomes.Find(1000), std::optional<bool>(false));
  for (TxnId txn = 2000; txn < 2000 + RecentOutcomes::kCapacity - 1; ++txn) {
    outcomes.Record(txn, true);
  }
  // Only the newest kCapacity ids remain: 1000 and the 255 just recorded.
  EXPECT_EQ(outcomes.Find(RecentOutcomes::kCapacity), std::nullopt);
  EXPECT_EQ(outcomes.Find(1000), std::optional<bool>(false));
  outcomes.Clear();
  EXPECT_EQ(outcomes.Find(1000), std::nullopt);
  outcomes.Record(5, true);
  EXPECT_EQ(outcomes.Find(5), std::optional<bool>(true));
}

}  // namespace
}  // namespace miniraid

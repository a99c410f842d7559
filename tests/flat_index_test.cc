#include "common/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

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

}  // namespace
}  // namespace miniraid

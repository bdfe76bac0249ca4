// BoundedRing<T>: capacity 0, wrap with its dropped() count, oldest-first
// order after a wrap, newest-first search, drain, resize and clear.

#include "src/util/bounded_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace rmp {
namespace {

TEST(BoundedRingTest, CapacityZeroStoresAndCountsNothing) {
  BoundedRing<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_FALSE(ring.Push(1).has_value());
  EXPECT_FALSE(ring.Push(2).has_value());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0);
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_TRUE(ring.Drain().empty());
  EXPECT_EQ(ring.FindNewest([](int) { return true; }), nullptr);
}

TEST(BoundedRingTest, WrapOverwritesOldestReturnsItAndCountsDropped) {
  BoundedRing<int> ring(3);
  for (int v = 1; v <= 3; ++v) {
    EXPECT_FALSE(ring.Push(v).has_value()) << v;
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0);
  for (int v = 4; v <= 8; ++v) {
    const std::optional<int> evicted = ring.Push(v);
    ASSERT_TRUE(evicted.has_value()) << v;
    EXPECT_EQ(*evicted, v - 3);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 5);
}

TEST(BoundedRingTest, OldestFirstOrderAfterWrap) {
  BoundedRing<int> ring(4);
  for (int v = 0; v < 10; ++v) {
    ring.Push(v);
  }
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{6, 7, 8, 9}));
  EXPECT_EQ(ring[0], 6);
  EXPECT_EQ(ring[3], 9);
  // A partly filled ring starts at its first push.
  BoundedRing<int> partial(4);
  partial.Push(1);
  partial.Push(2);
  EXPECT_EQ(partial.Snapshot(), (std::vector<int>{1, 2}));
}

TEST(BoundedRingTest, FindNewestSearchesNewestFirstAndAllowsInPlaceEdits) {
  BoundedRing<std::pair<int, int>> ring(4);
  // Keys 1,2,1,3,1,2: the ring keeps {1,3,1,2} with values 2..5.
  const int keys[] = {1, 2, 1, 3, 1, 2};
  for (int i = 0; i < 6; ++i) {
    ring.Push({keys[i], i});
  }
  auto* newest_one = ring.FindNewest([](const auto& e) { return e.first == 1; });
  ASSERT_NE(newest_one, nullptr);
  EXPECT_EQ(newest_one->second, 4);
  newest_one->second = 40;
  EXPECT_EQ(ring[2].second, 40);
  auto* three = ring.FindNewest([](const auto& e) { return e.first == 3; });
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(three->second, 3);
  // Key 2 at index 1 was overwritten; only the newest one is left.
  auto* two = ring.FindNewest([](const auto& e) { return e.first == 2; });
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->second, 5);
  EXPECT_EQ(ring.FindNewest([](const auto& e) { return e.first == 9; }), nullptr);
}

TEST(BoundedRingTest, DrainMovesOutOldestFirstAndEmpties) {
  BoundedRing<std::unique_ptr<int>> ring(3);
  for (int v = 0; v < 5; ++v) {
    ring.Push(std::make_unique<int>(v));
  }
  std::vector<std::unique_ptr<int>> out = ring.Drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(*out[0], 2);
  EXPECT_EQ(*out[2], 4);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 2);
  // The drained ring fills from empty again.
  ring.Push(std::make_unique<int>(7));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(*ring[0], 7);
}

TEST(BoundedRingTest, ResizeAndClearEmptyTheRingAndKeepDropped) {
  BoundedRing<std::string> ring(2);
  ring.Push("a");
  ring.Push("b");
  ring.Push("c");
  EXPECT_EQ(ring.dropped(), 1);

  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(ring.dropped(), 1);
  ring.Push("d");
  EXPECT_EQ(ring.Snapshot(), (std::vector<std::string>{"d"}));

  ring.Resize(3);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.dropped(), 1);
  for (const char* s : {"e", "f", "g", "h"}) {
    ring.Push(s);
  }
  EXPECT_EQ(ring.Snapshot(), (std::vector<std::string>{"f", "g", "h"}));
  EXPECT_EQ(ring.dropped(), 2);

  ring.Resize(0);  // Disabled.
  EXPECT_FALSE(ring.Push("i").has_value());
  EXPECT_EQ(ring.size(), 0u);
}

}  // namespace
}  // namespace rmp

// Tests for util::FlatMap (src/util/flat_map.h).
//
// The interesting behaviour is all in the open-addressing machinery:
// backward-shift erase must keep every surviving probe chain reachable, and
// every operation must agree with a std::unordered_map oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"
#include "util/rng.h"

namespace revtr::util {
namespace {

// Degenerate hash: every key lands in one of four home slots, so every table
// is a handful of long probe clusters. Worst case for backward-shift erase.
struct FourSlotHash {
  std::size_t operator()(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key & 3u);
  }
};

// --------------------------------------------------------------------------
// Basics
// --------------------------------------------------------------------------

TEST(FlatMap, EmptyMapBasics) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.count(7), 0u);
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMap, InsertVariantsAgreeOnSemantics) {
  FlatMap<std::uint64_t, int> map;

  auto [it1, fresh1] = map.try_emplace(1, 10);
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(it1->second, 10);
  // try_emplace on a present key leaves the value alone.
  auto [it2, fresh2] = map.try_emplace(1, 99);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, 10);

  // insert_or_assign overwrites.
  auto [it3, fresh3] = map.insert_or_assign(1, 20);
  EXPECT_FALSE(fresh3);
  EXPECT_EQ(it3->second, 20);

  // insert(pair) keeps the existing value, like std::map::insert.
  auto [it4, fresh4] = map.insert({1, 77});
  EXPECT_FALSE(fresh4);
  EXPECT_EQ(it4->second, 20);
  auto [it5, fresh5] = map.insert({2, 30});
  EXPECT_TRUE(fresh5);
  EXPECT_EQ(it5->second, 30);

  EXPECT_TRUE(map.emplace(3, 40).second);
  map[4] = 50;
  EXPECT_EQ(map[5], 0);  // operator[] default-constructs.

  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.at(3), 40);
  map.at(3) = 41;
  EXPECT_EQ(map.at(3), 41);
  const auto& cmap = map;
  EXPECT_EQ(cmap.at(4), 50);
  EXPECT_EQ(cmap.find(4)->second, 50);
  EXPECT_EQ(cmap.count(4), 1u);
}

TEST(FlatMap, ClearAndReuse) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = static_cast<int>(k);
  EXPECT_EQ(map.size(), 100u);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(50));
  map[50] = 5;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(50), 5);
}

TEST(FlatMap, ReservePreservesContents) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 20; ++k) map[k] = static_cast<int>(k * 3);
  map.reserve(10000);
  EXPECT_EQ(map.size(), 20u);
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(map.at(k), static_cast<int>(k * 3));
  }
}

TEST(FlatMap, SequentialKeysSurviveRepeatedRehash) {
  // Sequential keys are the default hasher's hardest realistic input (IPv4
  // addresses, dense ids); growth from 16 slots to thousands rehashes the
  // whole table many times along the way.
  FlatMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kCount = 10000;
  for (std::uint64_t k = 0; k < kCount; ++k) map[k] = k * k;
  EXPECT_EQ(map.size(), kCount);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    ASSERT_TRUE(map.contains(k)) << k;
    EXPECT_EQ(map.at(k), k * k);
  }
  EXPECT_FALSE(map.contains(kCount));
  std::uint64_t visited = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(value, key * key);
    ++visited;
  }
  EXPECT_EQ(visited, kCount);
}

// --------------------------------------------------------------------------
// Backward-shift erase
// --------------------------------------------------------------------------

TEST(FlatMap, EraseKeepsEveryClusterMemberReachable) {
  // All keys collide into four home slots, so erasing from the middle of a
  // cluster must backward-shift the tail or later members become orphaned
  // (their probe walk would stop at the hole).
  FlatMap<std::uint64_t, int, FourSlotHash> map;
  constexpr std::uint64_t kCount = 64;
  for (std::uint64_t k = 0; k < kCount; ++k) {
    map.try_emplace(k, static_cast<int>(k));
  }
  std::vector<std::uint64_t> order;
  for (std::uint64_t k = 0; k < kCount; ++k) order.push_back(k);
  Rng rng(0xe7a5e);
  rng.shuffle(order);
  std::vector<bool> erased(kCount, false);
  for (const std::uint64_t victim : order) {
    EXPECT_EQ(map.erase(victim), 1u);
    erased[victim] = true;
    // Every survivor must still resolve through the shifted clusters.
    for (std::uint64_t k = 0; k < kCount; ++k) {
      if (erased[k]) {
        ASSERT_FALSE(map.contains(k)) << "resurrected key " << k;
      } else {
        ASSERT_TRUE(map.contains(k)) << "orphaned key " << k;
        ASSERT_EQ(map.at(k), static_cast<int>(k));
      }
    }
  }
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, ChurnDoesNotDegradeOrCorrupt) {
  // Scheduler-style steady-state churn: a sliding window of live keys,
  // erase-oldest + insert-newest for many times the table capacity. With
  // tombstones this pattern poisons probe chains; backward shift must keep
  // the table exact indefinitely.
  FlatMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kWindow = 128;
  constexpr std::uint64_t kSteps = 20000;
  for (std::uint64_t k = 0; k < kWindow; ++k) map[k] = k ^ 0xabcdef;
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    ASSERT_EQ(map.erase(step), 1u);
    const std::uint64_t fresh = step + kWindow;
    map[fresh] = fresh ^ 0xabcdef;
    ASSERT_EQ(map.size(), kWindow);
    // Spot-check both window edges every step; full sweep periodically.
    ASSERT_FALSE(map.contains(step));
    ASSERT_TRUE(map.contains(step + 1));
    ASSERT_TRUE(map.contains(fresh));
    if (step % 1000 == 999) {
      for (std::uint64_t k = step + 1; k <= fresh; ++k) {
        ASSERT_EQ(map.at(k), k ^ 0xabcdef);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Randomized oracle: FlatMap vs std::unordered_map
// --------------------------------------------------------------------------

TEST(FlatMap, RandomizedOpsMatchUnorderedMapOracle) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(0xf1a7);  // Deterministic: failures reproduce bit-for-bit.
  constexpr std::uint64_t kKeySpace = 512;  // Small => frequent hits/erases.
  constexpr int kOps = 30000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t key = rng.below(kKeySpace);
    switch (rng.below(5)) {
      case 0: {  // try_emplace
        const auto a = map.try_emplace(key, static_cast<std::uint64_t>(op));
        const auto b =
            oracle.try_emplace(key, static_cast<std::uint64_t>(op));
        ASSERT_EQ(a.second, b.second);
        ASSERT_EQ(a.first->second, b.first->second);
        break;
      }
      case 1: {  // insert_or_assign
        const auto a =
            map.insert_or_assign(key, static_cast<std::uint64_t>(op));
        const auto b =
            oracle.insert_or_assign(key, static_cast<std::uint64_t>(op));
        ASSERT_EQ(a.second, b.second);
        break;
      }
      case 2: {  // erase by key
        ASSERT_EQ(map.erase(key), oracle.erase(key));
        break;
      }
      case 3: {  // operator[] read-modify-write
        map[key] += 1;
        oracle[key] += 1;
        break;
      }
      default: {  // pure lookup
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          ASSERT_FALSE(map.contains(key));
        } else {
          ASSERT_TRUE(map.contains(key));
          ASSERT_EQ(map.at(key), it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
    if (op % 2500 == 2499) {
      // Full bidirectional sweep: same contents, no extras either way.
      for (const auto& [k, v] : oracle) {
        const auto it = map.find(k);
        ASSERT_NE(it, map.end()) << "missing key " << k;
        ASSERT_EQ(it->second, v);
      }
      std::size_t walked = 0;
      for (const auto& [k, v] : map) {
        const auto it = oracle.find(k);
        ASSERT_NE(it, oracle.end()) << "phantom key " << k;
        ASSERT_EQ(v, it->second);
        ++walked;
      }
      ASSERT_EQ(walked, oracle.size());
    }
  }
}

}  // namespace
}  // namespace revtr::util

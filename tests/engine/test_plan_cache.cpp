#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/plan_cache.hpp"

namespace treecode::engine {
namespace {

std::shared_ptr<EvalPlan> make_plan(std::uint64_t key, double x0 = 0.0) {
  auto plan = std::make_shared<EvalPlan>();
  plan->key = key;
  plan->targets = {{x0, 0.0, 0.0}};
  plan->self = false;
  return plan;
}

std::span<const Vec3> targets_of(const EvalPlan& plan) { return plan.targets; }

TEST(PlanCache, FindVerifiesTargetsNotJustKey) {
  PlanCache cache(4);
  auto plan = make_plan(42, 1.0);
  cache.insert(plan);
  EXPECT_EQ(cache.find(42, targets_of(*plan), false).get(), plan.get());
  // Same key, different targets (a hash collision): must miss.
  const std::vector<Vec3> other{{2.0, 0.0, 0.0}};
  EXPECT_EQ(cache.find(42, other, false), nullptr);
  // Same key and targets but self flag mismatch: must miss.
  EXPECT_EQ(cache.find(42, targets_of(*plan), true), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  auto a = make_plan(1, 1.0);
  auto b = make_plan(2, 2.0);
  auto c = make_plan(3, 3.0);
  cache.insert(a);
  cache.insert(b);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.find(1, targets_of(*a), false), nullptr);
  cache.insert(c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(1, targets_of(*a), false), nullptr);
  EXPECT_NE(cache.find(3, targets_of(*c), false), nullptr);
  EXPECT_EQ(cache.find(2, targets_of(*b), false), nullptr);
}

TEST(PlanCache, InsertReplacesSameKey) {
  PlanCache cache(4);
  auto v1 = make_plan(7, 1.0);
  auto v2 = make_plan(7, 1.0);
  cache.insert(v1);
  cache.insert(v2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(7, targets_of(*v2), false).get(), v2.get());
}

TEST(PlanCache, CapacityClampedToAtLeastOne) {
  PlanCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  auto a = make_plan(1, 1.0);
  auto b = make_plan(2, 2.0);
  cache.insert(a);
  cache.insert(b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(2, targets_of(*b), false).get(), b.get());
}

TEST(PlanCache, EvictedPlanSurvivesThroughSharedPtr) {
  PlanCache cache(1);
  auto a = make_plan(1, 1.0);
  cache.insert(a);
  cache.insert(make_plan(2, 2.0));
  // The cache dropped its reference, but the caller's plan stays valid —
  // replays against held plans never dangle.
  EXPECT_EQ(cache.find(1, targets_of(*a), false), nullptr);
  EXPECT_EQ(a->key, 1u);
  EXPECT_EQ(a->targets.size(), 1u);
}

std::shared_ptr<EvalPlan> make_sized_plan(std::uint64_t key, std::size_t entries) {
  auto plan = make_plan(key, static_cast<double>(key));
  plan->entries.assign(entries, 0);
  return plan;
}

TEST(PlanCache, BytesTrackResidentPlans) {
  PlanCache cache(8);
  EXPECT_EQ(cache.bytes(), 0u);
  auto a = make_sized_plan(1, 100);
  auto b = make_sized_plan(2, 200);
  cache.insert(a);
  EXPECT_EQ(cache.bytes(), a->memory_bytes());
  cache.insert(b);
  EXPECT_EQ(cache.bytes(), a->memory_bytes() + b->memory_bytes());
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PlanCache, ReplacingSameKeySwapsBytes) {
  PlanCache cache(8);
  auto small = make_sized_plan(7, 10);
  auto big = make_sized_plan(7, 1000);
  cache.insert(small);
  cache.insert(big);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), big->memory_bytes());
}

TEST(PlanCache, EvictsByBytesBeforeCount) {
  // Count capacity 8, but the byte bound only fits two of these plans.
  auto a = make_sized_plan(1, 1000);
  const std::size_t byte_cap = 2 * a->memory_bytes() + a->memory_bytes() / 2;
  PlanCache cache(8, byte_cap);
  EXPECT_EQ(cache.byte_capacity(), byte_cap);
  cache.insert(a);
  cache.insert(make_sized_plan(2, 1000));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.insert(make_sized_plan(3, 1000));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), byte_cap);
  // Key 1 was the LRU victim.
  EXPECT_EQ(cache.find(1, targets_of(*a), false), nullptr);
}

TEST(PlanCache, OversizedPlanNotRetained) {
  auto small = make_sized_plan(1, 10);
  auto huge = make_sized_plan(2, 100000);
  PlanCache cache(8, small->memory_bytes() * 4);
  EXPECT_TRUE(cache.insert(small));
  // A plan alone over the byte bound is declined — caching it would evict
  // everything and still bust the budget — but the caller's pointer works.
  EXPECT_FALSE(cache.insert(huge));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(2, targets_of(*huge), false), nullptr);
  EXPECT_NE(cache.find(1, targets_of(*small), false), nullptr);
}

TEST(PlanCache, ClearResetsPlansButKeepsCounters) {
  PlanCache cache(4);
  auto a = make_plan(1, 1.0);
  cache.insert(a);
  EXPECT_NE(cache.find(1, targets_of(*a), false), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1, targets_of(*a), false), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace treecode::engine

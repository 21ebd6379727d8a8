// for_each_node's cost-cut schedule: which runs it hands out, that every
// index runs exactly once at any pool width, and that the upward pass it
// schedules is bitwise independent of the width.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/degree_policy.hpp"
#include "core/interaction_walk.hpp"
#include "dist/distributions.hpp"
#include "obs/spans.hpp"

namespace treecode {
namespace {

/// The cost cases: one dominant index, equal costs, all zero.
std::vector<std::vector<std::uint64_t>> cost_cases(std::size_t count) {
  std::vector<std::uint64_t> dominant(count, 1);
  if (count > 0) dominant[0] = 1'000'000;
  return {dominant, std::vector<std::uint64_t>(count, 5),
          std::vector<std::uint64_t>(count, 0)};
}

TEST(ForEachNode, VisitsEveryIndexExactlyOnceAtWidths124) {
  for (const unsigned width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{37},
                                    std::size_t{1000}}) {
      for (const std::vector<std::uint64_t>& costs : cost_cases(count)) {
        std::vector<std::atomic<int>> visits(count);
        for_each_node(
            &pool, count, [&](std::size_t i) { return costs[i]; }, obs::span::kBhP2mWorker,
            [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); });
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(visits[i].load(), 1) << "width=" << width << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST(ForEachNode, RunsCutAtTheCostShare) {
  const auto ends_of = [](const std::vector<std::uint64_t>& costs, unsigned width) {
    return node_run_ends(costs.size(), [&](std::size_t i) { return costs[i]; }, width);
  };
  // Equal costs over enough indices that eight stay below the share, and
  // zero costs, close no run early: the old blocks of eight.
  std::vector<std::size_t> blocks;
  for (std::size_t e = 8; e <= 200; e += 8) blocks.push_back(e);
  EXPECT_EQ(ends_of(std::vector<std::uint64_t>(200, 5), 4), blocks);
  EXPECT_EQ(ends_of(std::vector<std::uint64_t>(20, 0), 4), (std::vector<std::size_t>{8, 16, 20}));
  EXPECT_TRUE(ends_of({}, 4).empty());
  EXPECT_EQ(ends_of({7}, 4), std::vector<std::size_t>{1});
  // A dominant index runs alone, wherever it sits.
  std::vector<std::uint64_t> costs(20, 1);
  costs[0] = 1000;
  EXPECT_EQ(ends_of(costs, 4), (std::vector<std::size_t>{1, 9, 17, 20}));
  costs[0] = 1;
  costs[11] = 1000;
  EXPECT_EQ(ends_of(costs, 4), (std::vector<std::size_t>{8, 11, 12, 20}));
  // A run closes once its sum reaches total / (4 * width): 16 here.
  EXPECT_EQ(ends_of(std::vector<std::uint64_t>(16, 8), 2),
            (std::vector<std::size_t>{2, 4, 6, 8, 10, 12, 14, 16}));
}

TEST(ForEachNode, BuildMultipolesBitwiseAcrossWidths124) {
  const ParticleSystem ps = dist::overlapped_gaussians(6'000, 8, 3);
  const Tree tree(ps);
  EvalConfig config;
  config.alpha = 0.5;
  config.degree = 4;
  config.mode = DegreeMode::kAdaptive;
  const DegreeAssignment degrees = assign_degrees(tree, config);
  const auto build = [&](unsigned width) {
    ThreadPool pool(width);
    return build_multipoles(tree, degrees.degree, tree.charges(), &pool,
                            obs::span::kBhP2mWorker);
  };
  const std::vector<MultipoleExpansion> serial = build(1);
  ASSERT_EQ(serial.size(), tree.num_nodes());
  for (const unsigned width : {2u, 4u}) {
    const std::vector<MultipoleExpansion> wide = build(width);
    ASSERT_EQ(wide.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const std::vector<Complex>& a = serial[i].data();
      const std::vector<Complex>& b = wide[i].data();
      ASSERT_EQ(a.size(), b.size()) << "node " << i;
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k].real()),
                  std::bit_cast<std::uint64_t>(b[k].real()))
            << "width=" << width << " node=" << i << " k=" << k;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k].imag()),
                  std::bit_cast<std::uint64_t>(b[k].imag()))
            << "width=" << width << " node=" << i << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace treecode

// Audit engine unit tests: counter-based sampling keys, bounded top-K
// reservoirs, partition-independent merging, and finalize()'s tightness
// arithmetic. The end-to-end evaluator audits (K samples taken, ratios vs a
// real tree) live in tests/core and tests/engine; schedule-independence is
// stressed in tests/parallel/test_stress.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/report.hpp"

namespace treecode {
namespace {

using obs::audit::Reservoir;
using obs::audit::Sample;
using obs::audit::sample_key;
using obs::audit::sample_less;

Sample make_sample(std::uint64_t seed, std::uint64_t target, std::uint64_t ordinal) {
  Sample s;
  s.key = sample_key(seed, target, ordinal);
  s.target = target;
  s.node = static_cast<std::int64_t>(ordinal);
  return s;
}

TEST(AuditKey, DeterministicAndInputSensitive) {
  EXPECT_EQ(sample_key(1, 2, 3), sample_key(1, 2, 3));
  // Full-avalanche mixing: any single-input change must move the key.
  EXPECT_NE(sample_key(1, 2, 3), sample_key(2, 2, 3));
  EXPECT_NE(sample_key(1, 2, 3), sample_key(1, 3, 3));
  EXPECT_NE(sample_key(1, 2, 3), sample_key(1, 2, 4));
  // The digest chain keeps (target, ordinal) asymmetric.
  EXPECT_NE(sample_key(1, 2, 3), sample_key(1, 3, 2));
}

TEST(AuditReservoir, ZeroCapacityIsDisabled) {
  Reservoir r;
  r.offer(make_sample(0, 0, 0));
  EXPECT_EQ(r.size(), 0u);
  r.set_capacity(0);
  r.offer(make_sample(0, 0, 1));
  EXPECT_EQ(r.size(), 0u);
}

TEST(AuditReservoir, KeepsTheKSmallestKeys) {
  Reservoir r;
  r.set_capacity(8);
  std::vector<Sample> all;
  for (std::uint64_t i = 0; i < 200; ++i) {
    all.push_back(make_sample(7, i % 13, i));
    r.offer(all.back());
  }
  ASSERT_EQ(r.size(), 8u);
  std::sort(all.begin(), all.end(), sample_less);
  std::vector<Sample> kept = r.samples();
  std::sort(kept.begin(), kept.end(), sample_less);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].key, all[i].key) << "rank " << i;
    EXPECT_EQ(kept[i].target, all[i].target);
    EXPECT_EQ(kept[i].node, all[i].node);
  }
}

TEST(AuditMerge, IndependentOfPartitioning) {
  // The same 500 interactions pushed through 1, 2, and 7 reservoirs (the
  // serial run, a 2-thread run, a 7-thread run) must select the identical
  // global top-K — this is the determinism contract the evaluators rely on.
  const std::size_t k = 32;
  std::vector<Sample> interactions;
  for (std::uint64_t i = 0; i < 500; ++i) {
    interactions.push_back(make_sample(42, i / 5, i % 5));
  }
  std::vector<std::vector<Sample>> selections;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    std::vector<Reservoir> rs(shards);
    for (Reservoir& r : rs) r.set_capacity(k);
    for (std::size_t i = 0; i < interactions.size(); ++i) {
      rs[i % shards].offer(interactions[i]);
    }
    selections.push_back(obs::audit::merge(rs, k));
  }
  for (const auto& sel : selections) {
    ASSERT_EQ(sel.size(), k);
    // merge() returns ascending order.
    for (std::size_t i = 1; i < sel.size(); ++i) {
      EXPECT_TRUE(sample_less(sel[i - 1], sel[i]));
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(selections[0][i].key, selections[1][i].key);
    EXPECT_EQ(selections[0][i].key, selections[2][i].key);
    EXPECT_EQ(selections[0][i].target, selections[1][i].target);
    EXPECT_EQ(selections[0][i].target, selections[2][i].target);
  }
}

TEST(AuditMerge, TruncatesToKAcrossOverfullReservoirs) {
  std::vector<Reservoir> rs(3);
  for (Reservoir& r : rs) r.set_capacity(4);
  for (std::uint64_t i = 0; i < 60; ++i) rs[i % 3].offer(make_sample(9, i, i));
  const std::vector<Sample> sel = obs::audit::merge(rs, 4);
  ASSERT_EQ(sel.size(), 4u);
  // Each selected sample is among the 4 smallest of the reservoir that saw
  // it, so the global 4 smallest survive the per-thread truncation.
  std::vector<Sample> all;
  for (std::uint64_t i = 0; i < 60; ++i) all.push_back(make_sample(9, i, i));
  std::sort(all.begin(), all.end(), sample_less);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(sel[i].key, all[i].key);
}

class AuditFinalize : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::registry().reset_values();
    obs::drain_warnings();
    obs::reqtrace::reset();
  }
};

TEST_F(AuditFinalize, EmptyWinnersYieldEmptySummary) {
  const obs::audit::Summary s =
      obs::audit::finalize({}, [](const Sample&) { return 0.0; });
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.bound_violations, 0u);
  EXPECT_EQ(s.max_tightness, 0.0);
}

TEST_F(AuditFinalize, ComputesTightnessStatistics) {
  std::vector<Sample> winners(3);
  winners[0].approx = 1.0;
  winners[0].bound = 0.5;   // exact 0.9 -> observed 0.1 -> ratio 0.2
  winners[1].approx = 2.0;
  winners[1].bound = 0.25;  // exact 1.9 -> observed 0.1 -> ratio 0.4
  winners[2].approx = 3.0;
  winners[2].bound = 1.0;   // exact 3.0 -> observed 0.0 -> ratio 0.0
  const obs::audit::Summary s = obs::audit::finalize(
      winners, [](const Sample& w) { return w.approx - (w.bound < 1.0 ? 0.1 : 0.0); });
  EXPECT_EQ(s.samples, 3u);
  EXPECT_EQ(s.bound_violations, 0u);
  EXPECT_NEAR(s.max_tightness, 0.4, 1e-12);
  EXPECT_NEAR(s.mean_tightness, (0.2 + 0.4 + 0.0) / 3.0, 1e-12);
  EXPECT_EQ(obs::registry().snapshot().counters.at("audit.samples"), 3u);
  EXPECT_TRUE(obs::drain_warnings().empty());
}

TEST_F(AuditFinalize, RatioAboveOneCountsAsViolationAndWarns) {
  std::vector<Sample> winners(1);
  winners[0].approx = 1.0;
  winners[0].bound = 0.01;  // exact 0.5 -> observed 0.5 -> ratio 50
  const obs::audit::Summary s =
      obs::audit::finalize(winners, [](const Sample&) { return 0.5; });
  EXPECT_EQ(s.bound_violations, 1u);
  EXPECT_NEAR(s.max_tightness, 50.0, 1e-9);
  const std::vector<std::string> warnings = obs::drain_warnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bound violated"), std::string::npos);
}

TEST_F(AuditFinalize, ZeroBoundWithErrorIsInfiniteViolation) {
  std::vector<Sample> winners(2);
  winners[0].approx = 1.0;
  winners[0].bound = 0.0;  // exact 1.0 -> observed 0 -> ratio 0, fine
  winners[1].approx = 2.0;
  winners[1].bound = 0.0;  // exact 1.5 -> observed 0.5 with a zero bound
  const obs::audit::Summary s = obs::audit::finalize(
      winners, [](const Sample& w) { return w.approx > 1.5 ? 1.5 : w.approx; });
  EXPECT_EQ(s.samples, 2u);
  EXPECT_EQ(s.bound_violations, 1u);
  // The infinite ratio is excluded from max/mean; only the clean sample's
  // zero ratio remains.
  EXPECT_EQ(s.max_tightness, 0.0);
  EXPECT_EQ(s.mean_tightness, 0.0);
  EXPECT_EQ(obs::drain_warnings().size(), 1u);
}

TEST_F(AuditFinalize, RecordsPerDimensionHistograms) {
  std::vector<Sample> winners(1);
  winners[0].approx = 1.0;
  winners[0].bound = 1.0;
  winners[0].level = 3;
  winners[0].degree = 5;
  winners[0].abs_charge = 250.0;  // decade 2
  (void)obs::audit::finalize(winners, [](const Sample&) { return 0.75; });
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_NE(snap.histograms.find("audit.tightness"), snap.histograms.end());
  EXPECT_NE(snap.histograms.find("audit.tightness.L3"), snap.histograms.end());
  EXPECT_NE(snap.histograms.find("audit.tightness.p5"), snap.histograms.end());
  EXPECT_NE(snap.histograms.find("audit.tightness.q2"), snap.histograms.end());
}

}  // namespace
}  // namespace treecode

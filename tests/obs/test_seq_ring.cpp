// SeqRing unit tests: wraparound keeps the newest N records, clear()
// restarts sequencing, and records round-trip bit-exactly through the
// 64-bit payload words. Concurrent push/snapshot stress lives in
// tests/parallel/test_stress.cpp (SeqRingStress, under TSan).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "obs/seq_ring.hpp"

namespace treecode {
namespace {

struct Tick {
  std::uint64_t value = 0;
  std::uint32_t tag = 0;
};

TEST(SeqRing, PartialFillReturnsWrittenSlotsOldestFirst) {
  obs::SeqRing<Tick, 8> ring;
  EXPECT_TRUE(ring.snapshot().empty());
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.push(Tick{i * 10, 7}), i);
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::size_t j = 0; j < snap.size(); ++j) {
    EXPECT_EQ(snap[j].first, j);
    EXPECT_EQ(snap[j].second.value, j * 10);
    EXPECT_EQ(snap[j].second.tag, 7u);
  }
}

TEST(SeqRing, WraparoundKeepsTheNewestNRecords) {
  constexpr std::size_t kN = 8;
  obs::SeqRing<Tick, kN> ring;
  for (std::uint64_t i = 0; i < 21; ++i) ring.push(Tick{i * 3 + 1, 0});
  EXPECT_EQ(ring.pushed(), 21u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), kN);
  EXPECT_EQ(snap.front().first, ring.pushed() - kN);
  for (std::size_t j = 0; j < snap.size(); ++j) {
    const std::uint64_t seq = ring.pushed() - kN + j;
    EXPECT_EQ(snap[j].first, seq);
    EXPECT_EQ(snap[j].second.value, seq * 3 + 1);
  }
}

TEST(SeqRing, ClearEmptiesTheRingAndRestartsSeqAtZero) {
  obs::SeqRing<Tick, 4> ring;
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(Tick{i, 0});
  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.push(Tick{42, 1}), 0u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, 0u);
  EXPECT_EQ(snap[0].second.value, 42u);
}

// Packed so sizeof is 17: the last payload word is only partly used.
#pragma pack(push, 1)
struct OddRecord {
  double value = 0.0;
  const char* label = "";
  bool flag = false;
};
#pragma pack(pop)
static_assert(sizeof(OddRecord) % 8 != 0);

TEST(SeqRing, OddSizedRecordRoundTripsBitExactly) {
  static const char kLabel[] = "seq_ring.odd";
  OddRecord in;
  in.value = std::bit_cast<double>(std::uint64_t{0x7FF80000DEADBEEFULL});  // payload NaN
  in.label = kLabel;
  in.flag = true;
  obs::SeqRing<OddRecord, 2> ring;
  ring.push(in);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const OddRecord out = snap[0].second;
  EXPECT_EQ(std::memcmp(&out, &in, sizeof(OddRecord)), 0);
  const double value = out.value;
  const char* label = out.label;
  const bool flag = out.flag;
  EXPECT_TRUE(std::isnan(value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(value), 0x7FF80000DEADBEEFULL);
  EXPECT_EQ(label, kLabel);
  EXPECT_TRUE(flag);
}

}  // namespace
}  // namespace treecode

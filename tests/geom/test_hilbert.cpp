#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>

#include "geom/hilbert.hpp"

namespace treecode {
namespace {

/// Skilling's loop encoder as hilbert_encode() first shipped it: per-bit
/// if/else in the inverse undo and the Gray step, then a bit-at-a-time
/// interleave. The branchless encoder must reproduce every key it gives.
std::uint64_t reference_hilbert_encode(std::uint32_t xi, std::uint32_t yi,
                                       std::uint32_t zi) {
  constexpr int kBits = kSfcBitsPerAxis;
  std::uint32_t x[3] = {xi, yi, zi};
  const std::uint32_t m = 1u << (kBits - 1);
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (int i = 0; i < 3; ++i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  for (int i = 1; i < 3; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if (x[2] & q) t ^= q - 1;
  }
  for (int i = 0; i < 3; ++i) x[i] ^= t;
  std::uint64_t key = 0;
  for (int b = kBits - 1; b >= 0; --b) {
    for (int i = 0; i < 3; ++i) key = (key << 1) | ((x[i] >> b) & 1u);
  }
  return key;
}

TEST(Hilbert, EncodeMatchesSkillingReference) {
  // Exhaustive on a 128^3 grid placed at the low, middle and high bits of
  // the 21-bit axes, then random full-width triples.
  std::size_t mismatches = 0;
  for (const int shift : {0, 7, 14}) {
    for (std::uint32_t x = 0; x < 128; ++x) {
      for (std::uint32_t y = 0; y < 128; ++y) {
        for (std::uint32_t z = 0; z < 128; ++z) {
          const std::uint32_t a = x << shift, b = y << shift, c = z << shift;
          if (hilbert_encode(a, b, c) != reference_hilbert_encode(a, b, c) &&
              ++mismatches <= 5) {
            ADD_FAILURE() << "x=" << a << " y=" << b << " z=" << c;
          }
        }
      }
    }
  }
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<std::uint32_t> u(0, (1u << kSfcBitsPerAxis) - 1);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint32_t a = u(rng), b = u(rng), c = u(rng);
    if (hilbert_encode(a, b, c) != reference_hilbert_encode(a, b, c) && ++mismatches <= 5) {
      ADD_FAILURE() << "x=" << a << " y=" << b << " z=" << c;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Hilbert, EncodeDecodeRoundTrip) {
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<std::uint32_t> u(0, (1u << kSfcBitsPerAxis) - 1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t x = u(rng);
    const std::uint32_t y = u(rng);
    const std::uint32_t z = u(rng);
    const GridCoord g = hilbert_decode(hilbert_encode(x, y, z));
    EXPECT_EQ(g, (GridCoord{x, y, z})) << "x=" << x << " y=" << y << " z=" << z;
  }
}

// The defining property of the Hilbert curve: consecutive indices map to
// face-adjacent grid cells (Manhattan distance exactly 1).
TEST(Hilbert, ConsecutiveKeysAreGridNeighbors) {
  // Walk a contiguous stretch of the curve. The full 63-bit curve is huge;
  // adjacency is a local property, so a window plus random windows suffice.
  auto manhattan = [](const GridCoord& a, const GridCoord& b) {
    auto d = [](std::uint32_t p, std::uint32_t q) {
      return p > q ? p - q : q - p;
    };
    return d(a.x, b.x) + d(a.y, b.y) + d(a.z, b.z);
  };
  GridCoord prev = hilbert_decode(0);
  for (std::uint64_t k = 1; k < 4096; ++k) {
    const GridCoord cur = hilbert_decode(k);
    EXPECT_EQ(manhattan(prev, cur), 1u) << "at key " << k;
    prev = cur;
  }
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> u(0, (1ull << 62) - 2);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = u(rng);
    EXPECT_EQ(manhattan(hilbert_decode(k), hilbert_decode(k + 1)), 1u) << "at key " << k;
  }
}

TEST(Hilbert, BijectiveOnSmallGrid) {
  // Exhaustive over the first 8^4 = 4096 keys: all decoded cells distinct.
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const GridCoord g = hilbert_decode(k);
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(g.x) << 42) | (static_cast<std::uint64_t>(g.y) << 21) | g.z;
    EXPECT_TRUE(seen.insert(packed).second) << "duplicate cell at key " << k;
    EXPECT_EQ(hilbert_encode(g.x, g.y, g.z), k);
  }
}

TEST(Hilbert, StartsAtOrigin) {
  EXPECT_EQ(hilbert_decode(0), (GridCoord{0, 0, 0}));
}

TEST(HilbertKey, ProximityBeatsMorton) {
  // Statistical locality check: for consecutive key pairs along the curve,
  // the max jump in space is 1 cell (already tested); here check that
  // points close in hilbert_key order tend to be spatially close, by
  // sampling a sorted sequence of random points.
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::pair<std::uint64_t, Vec3>> pts;
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    pts.emplace_back(hilbert_key(p, box), p);
  }
  std::sort(pts.begin(), pts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double total = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    total += distance(pts[i - 1].second, pts[i].second);
  }
  const double mean_step = total / static_cast<double>(pts.size() - 1);
  // Random order would give a mean step ~0.66 (mean distance between
  // uniform points in the unit cube); Hilbert-sorted should be far smaller.
  EXPECT_LT(mean_step, 0.2);
}

}  // namespace
}  // namespace treecode

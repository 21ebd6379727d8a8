#include "geom/hilbert.hpp"

namespace treecode {
namespace {

constexpr int kBits = kSfcBitsPerAxis;
constexpr int kDims = 3;
constexpr std::uint32_t kAxisMask = (1u << kBits) - 1;

/// All ones if bit b of v is set, else zero.
constexpr std::uint32_t bit_mask(std::uint32_t v, int b) noexcept {
  return 0u - ((v >> b) & 1u);
}

/// One step of Skilling's inverse undo for axis xi (i >= 1) at bit b:
/// invert x0's low bits p when bit b of xi is set, otherwise exchange the
/// low bits of x0 and xi. Both outcomes are formed and masked, no branch.
inline void undo_step(std::uint32_t& x0, std::uint32_t& xi, int b, std::uint32_t p) noexcept {
  const std::uint32_t set = bit_mask(xi, b);
  const std::uint32_t t = (x0 ^ xi) & p & ~set;
  x0 ^= (p & set) | t;
  xi ^= t;
}

/// Skilling: transform transposed Hilbert index -> axes, in place.
void transpose_to_axes(std::uint32_t x[kDims]) noexcept {
  const std::uint32_t n = 1u << kBits;
  // Gray decode by H ^ (H/2)
  std::uint32_t t = x[kDims - 1] >> 1;
  for (int i = kDims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work
  for (std::uint32_t q = 2; q != n; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (int i = kDims - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t tt = (x[0] ^ x[i]) & p;
        x[0] ^= tt;
        x[i] ^= tt;
      }
    }
  }
}

}  // namespace

std::uint64_t hilbert_encode(std::uint32_t x0, std::uint32_t x1, std::uint32_t x2) noexcept {
  // Skilling's axes -> transpose, with mask selects for the per-bit
  // if/else. Axis 0's exchange with itself is a no-op, so its step is the
  // inversion alone.
#pragma GCC unroll 32
  for (int b = kBits - 1; b > 0; --b) {
    const std::uint32_t p = (1u << b) - 1;
    x0 ^= p & bit_mask(x0, b);
    undo_step(x0, x1, b, p);
    undo_step(x0, x2, b, p);
  }
  // Gray encode. The loop form XORs q - 1 into t for every set bit q > 1
  // of x2, so bit j of t is the parity of x2's bits above j: a suffix XOR.
  x1 ^= x0;
  x2 ^= x1;
  std::uint32_t t = (x2 & kAxisMask) >> 1;
  t ^= t >> 1;
  t ^= t >> 2;
  t ^= t >> 4;
  t ^= t >> 8;
  t ^= t >> 16;
  // Interleave MSB-first: key bit 3b + 2 - i is bit b of axis i.
  return (morton_part_bits(x0 ^ t) << 2) | (morton_part_bits(x1 ^ t) << 1) |
         morton_part_bits(x2 ^ t);
}

GridCoord hilbert_decode(std::uint64_t key) noexcept {
  std::uint32_t x[kDims] = {static_cast<std::uint32_t>(morton_compact_bits(key >> 2)),
                            static_cast<std::uint32_t>(morton_compact_bits(key >> 1)),
                            static_cast<std::uint32_t>(morton_compact_bits(key))};
  transpose_to_axes(x);
  return {x[0], x[1], x[2]};
}

std::uint64_t hilbert_key(const Vec3& p, const Aabb& box) noexcept {
  const GridCoord g = quantize(p, box);
  return hilbert_encode(g.x, g.y, g.z);
}

}  // namespace treecode

#pragma once

/// \file hilbert.hpp
/// 3-D Peano-Hilbert curve keys.
///
/// The paper sorts particles "in a proximity-preserving order (a
/// Peano-Hilbert ordering)" before aggregating blocks of w particles into
/// threads; the Hilbert curve's guarantee that consecutive keys are grid
/// neighbors gives better block compactness (and hence cache behavior and
/// load balance) than Morton order.
///
/// The implementation uses John Skilling's transpose-form algorithm
/// ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004): axes are
/// converted to the transposed Hilbert index with O(bits) bit manipulation,
/// then the transpose is interleaved into a single 63-bit key. The encoder
/// is branchless: mask selects stand in for Skilling's per-bit if/else (an
/// unpredictable branch per bit and axis), the Gray step's loop is a suffix
/// XOR, and the interleave is morton_part_bits on each axis, so a key costs
/// a fixed chain of ALU operations and no mispredictions.

#include <cstdint>

#include "geom/aabb.hpp"
#include "geom/morton.hpp"
#include "geom/vec3.hpp"

namespace treecode {

/// Convert integer grid coordinates (each < 2^kSfcBitsPerAxis) to a Hilbert
/// curve index in [0, 2^63). Consecutive indices are face-adjacent cells.
std::uint64_t hilbert_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept;

/// Inverse of hilbert_encode.
GridCoord hilbert_decode(std::uint64_t key) noexcept;

/// Hilbert key of a point within a bounding box (quantized like morton_key).
std::uint64_t hilbert_key(const Vec3& p, const Aabb& box) noexcept;

}  // namespace treecode

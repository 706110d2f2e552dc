/**
 * @file
 * Algorithm 1: decompose a tensor along tile boundaries so boundary tiles
 * are handled by separate commands.
 */

#ifndef INFS_JIT_DECOMPOSE_HH
#define INFS_JIT_DECOMPOSE_HH

#include <vector>

#include "sim/expected.hh"
#include "tdfg/hyperrect.hh"

namespace infs {

/**
 * Recursively decompose an N-D tensor along the tile boundary in each
 * dimension (paper Alg. 1). The result is a partition of @p tensor into
 * subtensors that are each either tile-aligned (the middle) or contained
 * in one boundary tile row (head/tail) per dimension. Malformed inputs
 * (rank mismatch, non-positive tile dimension) come back as a
 * LayoutConstraint diagnostic instead of aborting, so the runtime can
 * degrade the region.
 */
Expected<std::vector<HyperRect>>
tryDecomposeTensor(const HyperRect &tensor, const std::vector<Coord> &tile);

} // namespace infs

#endif // INFS_JIT_DECOMPOSE_HH

/**
 * @file
 * Shared helpers for workload factories.
 */

#ifndef INFS_WORKLOADS_COMMON_HH
#define INFS_WORKLOADS_COMMON_HH

#include <string>
#include <utility>

#include "core/workload.hh"
#include "sim/rng.hh"

namespace infs {
namespace wl {

/** Fill an array with deterministic pseudo-random values in [lo, hi). */
inline void
randomFill(ArrayStore &store, ArrayId a, float lo, float hi,
           std::uint64_t seed)
{
    Rng rng(seed);
    for (float &v : store.array(a).data)
        v = rng.nextFloat(lo, hi);
}

/** Bytes of @p elems fp32 elements. */
inline Bytes
fp32Bytes(std::int64_t elems)
{
    return static_cast<Bytes>(elems) * 4;
}

/**
 * The aligned operand pair of one outer-product round kk (Fig 8 right)
 * on the {n, m} lattice: column kk of A (array @p a, stored {K, M})
 * moved to lattice column 0 and broadcast across the n columns, and row
 * kk of B (array @p b, stored {N, K}) moved to lattice row 0 and
 * broadcast across the m rows. Returns {A operand, B operand}; the
 * caller adds the compute.
 */
std::pair<NodeId, NodeId>
rank1Operands(TdfgGraph &g, ArrayId a, ArrayId b, Coord m, Coord n,
              Coord kk, std::string a_name = "", std::string b_name = "");

/**
 * The operands of one inner-product round j (Fig 8 left) on the {k, m}
 * lattice: all of A (array @p a, stored {K, M}) and the j-th {1, K}
 * strip of B (array @p b, stored {N, K}) restaged by a stream-to-tensor
 * load (§3.3) as a {K, 1} column and broadcast across the m rows.
 * Returns {A, B column}; the caller adds the compute.
 */
std::pair<NodeId, NodeId>
dotOperands(TdfgGraph &g, ArrayId a, ArrayId b, Coord m, Coord n,
            Coord k, Coord j, std::string a_name = "",
            std::string b_name = "");

/**
 * The GEMM C = A x B as one phase in the @p outer (rank-1 rounds) or
 * inner (dot-column rounds) dataflow, with its near-memory streams and
 * core costs. Arrays: A {K, M}, B {N, K}, C {N, M} at ids @p a, @p b,
 * @p c.
 */
Phase gemmPhase(Coord m, Coord n, Coord k, bool outer, ArrayId a,
                ArrayId b, ArrayId c);

} // namespace wl
} // namespace infs

#endif // INFS_WORKLOADS_COMMON_HH

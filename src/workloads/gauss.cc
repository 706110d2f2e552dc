/**
 * @file
 * Gaussian elimination (Fig 4c, Fig 7): per-k region with broadcast data
 * movement; the shrinking tensors are re-lowered every iteration (no JIT
 * memoization — the paper's JIT-overhead outlier).
 *
 * Lattice convention: dim 0 = column j (innermost), dim 1 = row i.
 * A is {n, n}; B is {1, n} so rows of B share dim 1 with A.
 */

#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {

Workload
makeGaussElim(Coord n)
{
    Workload w;
    w.name = "gauss_elim";
    w.primaryShape = {n, n};
    w.footprintBytes = wl::fp32Bytes(n * n + n);
    w.dirtyBytes = wl::fp32Bytes(n * n + n);

    w.setup = [n](ArrayStore &s) {
        ArrayId a = s.declare("A", {n, n});
        ArrayId b = s.declare("B", {1, n});
        wl::randomFill(s, a, 1, 2, 21);
        wl::randomFill(s, b, -1, 1, 22);
        // Diagonal dominance keeps the elimination well conditioned.
        for (Coord i = 0; i < n; ++i)
            s.array(a).at({i, i}) += static_cast<float>(2 * n);
        (void)b;
    };

    Phase p;
    p.name = "eliminate";
    p.iterations = static_cast<std::uint64_t>(n - 1);
    p.sameTdfgEachIter = false; // Shrinking tensors defeat memoization.
    p.buildTdfg = [n](std::uint64_t iter) {
        const Coord k = static_cast<Coord>(iter);
        TdfgGraph g(2, "gauss_k" + std::to_string(k));
        // m[i] = A[i][k] / A[k][k] for i in (k, n).
        NodeId acol = g.tensor(0, HyperRect::box2(k, k + 1, k + 1, n),
                               "Aik");
        NodeId akk = g.tensor(0, HyperRect::box2(k, k + 1, k, k + 1),
                              "Akk");
        NodeId akk_bc = g.broadcast(akk, 1, 1, n - k - 1);
        NodeId m = g.compute(BitOp::Div, {acol, akk_bc}, "m");
        // B[i] -= m * B[k].
        NodeId bi = g.tensor(1, HyperRect::box2(0, 1, k + 1, n), "Bi");
        NodeId bk = g.tensor(1, HyperRect::box2(0, 1, k, k + 1), "bk");
        NodeId bk_bc = g.broadcast(bk, 1, 1, n - k - 1);
        NodeId m0 = g.move(m, 0, -k, "m_at_col0");
        NodeId b_new = g.compute(
            BitOp::Sub, {bi, g.compute(BitOp::Mul, {m0, bk_bc})});
        g.output(b_new, 1);
        // A[i][j] -= m * A[k][j] for i, j in (k, n).
        NodeId akj = g.tensor(0, HyperRect::box2(k + 1, n, k, k + 1),
                              "Akj");
        NodeId akj_bc = g.broadcast(akj, 1, 1, n - k - 1);
        NodeId m_bc = g.broadcast(m, 0, 1, n - k - 1);
        NodeId aij = g.tensor(0, HyperRect::box2(k + 1, n, k + 1, n),
                              "Aij");
        NodeId a_new = g.compute(
            BitOp::Sub, {aij, g.compute(BitOp::Mul, {m_bc, akj_bc})});
        g.output(a_new, 0);
        // Record the multipliers in the pivot column (standard LU form)
        // so the functional result is deterministic.
        g.output(m, 0);
        return g;
    };
    p.buildStreams = [n](std::uint64_t iter) {
        const Coord k = static_cast<Coord>(iter);
        const Coord rem = n - k - 1;
        // Near-memory form: row k broadcast, per-row multiplier division
        // and row update.
        NearStream pivot_row, update;
        pivot_row.pattern = AccessPattern::affine2(0, k * n + k + 1, rem,
                                                   0, 1);
        pivot_row.forwardTo = 1;
        update.pattern =
            AccessPattern::affine2(0, (k + 1) * n + k + 1, rem, n, rem);
        update.isStore = true;
        update.flopsPerElem = 2;
        return std::vector<NearStream>{pivot_row, update};
    };
    // Average per-iteration core cost. With m = n-k-1 rows below the
    // pivot, iteration k does m divisions, 2m for B and 2m^2 for A: the
    // sum over m = 1..n-1 of 2m^2 + 3m is (n-1) n (4n+7) / 6, so the mean
    // is n(4n+7)/6, rounded up so totalOps never falls below the ops the
    // in-memory path counts.
    p.coreFlopsPerIter =
        static_cast<std::uint64_t>((n * (4 * n + 7) + 5) / 6);
    p.coreBytesPerIter = wl::fp32Bytes(n * n / 2);
    w.phases.push_back(std::move(p));

    w.reference = [n](ArrayStore &s) {
        StoredArray &a = s.array(0);
        StoredArray &b = s.array(1);
        for (Coord k = 0; k < n - 1; ++k) {
            float akk = a.at({k, k});
            for (Coord i = k + 1; i < n; ++i) {
                float m = a.at({k, i}) / akk;
                b.at({0, i}) -= m * b.at({0, k});
                for (Coord j = k + 1; j < n; ++j)
                    a.at({j, i}) -= m * a.at({j, k});
                a.at({k, i}) = m;
            }
        }
    };
    return w;
}

} // namespace infs

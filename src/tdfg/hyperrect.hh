/**
 * @file
 * Hyperrectangles in the tDFG's global lattice space (§3.2). A tensor is a
 * hyperrectangle set of lattice cells [p0,q0) x ... x [pN-1,qN-1); compute
 * nodes operate on the intersection of their operands' rectangles.
 */

#ifndef INFS_TDFG_HYPERRECT_HH
#define INFS_TDFG_HYPERRECT_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace infs {

/** Coordinate in the lattice space. */
using Coord = std::int64_t;

/**
 * An N-dimensional half-open hyperrectangle in the lattice space.
 * Dimension 0 is the innermost / contiguous-in-address dimension.
 *
 * The bounds live inline (up to kMaxRank dims), so a rect is trivially
 * copyable and building, copying or intersecting one never touches the
 * heap: the JIT and the timing walk make millions of them per run.
 */
class HyperRect
{
  public:
    /** The largest rank any lattice object may have. The tDFG itself is
     * capped at rank 3 (§5.2); banksFor and the fabric's mask keys size
     * their per-dim scratch by this bound. */
    static constexpr unsigned kMaxRank = 8;

    HyperRect() = default;

    /** Construct from per-dimension [lo, hi) bounds. */
    HyperRect(const std::vector<Coord> &lo, const std::vector<Coord> &hi)
    {
        assign(lo.data(), hi.data(), lo.size(), hi.size());
    }

    /** Construct from braced per-dimension [lo, hi) bounds. */
    HyperRect(std::initializer_list<Coord> lo, std::initializer_list<Coord> hi)
    {
        assign(lo.begin(), hi.begin(), lo.size(), hi.size());
    }

    /** Convenience: a 1-D interval. */
    static HyperRect
    interval(Coord p, Coord q)
    {
        return HyperRect({p}, {q});
    }

    /** Convenience: a 2-D box [p0,q0) x [p1,q1). */
    static HyperRect
    box2(Coord p0, Coord q0, Coord p1, Coord q1)
    {
        return HyperRect({p0, p1}, {q0, q1});
    }

    /** Convenience: a 3-D box. */
    static HyperRect
    box3(Coord p0, Coord q0, Coord p1, Coord q1, Coord p2, Coord q2)
    {
        return HyperRect({p0, p1, p2}, {q0, q1, q2});
    }

    /** An array of the given sizes anchored at the origin. */
    static HyperRect
    array(const std::vector<Coord> &sizes)
    {
        HyperRect r;
        r.setRank(sizes.size());
        std::copy(sizes.begin(), sizes.end(), r.hi_.begin());
        return r;
    }

    unsigned dims() const { return rank_; }

    Coord lo(unsigned d) const { checkDim(d); return lo_[d]; }
    Coord hi(unsigned d) const { checkDim(d); return hi_[d]; }
    Coord size(unsigned d) const { checkDim(d); return hi_[d] - lo_[d]; }

    /** True when any dimension is empty (or the rect has no dims). */
    bool empty() const;

    /** Number of lattice cells; 0 when empty. */
    std::int64_t volume() const;

    /** Does the cell at @p pt lie inside? */
    bool contains(const std::vector<Coord> &pt) const;

    /** Is @p inner entirely inside this rect? */
    bool containsRect(const HyperRect &inner) const;

    /** Elementwise intersection; empty dims clamp to zero-size. */
    HyperRect intersect(const HyperRect &o) const;

    /** Do the two rects share a cell? `!intersect(o).empty()` without
     * building the intersection. */
    bool overlaps(const HyperRect &o) const;

    /** Minimal rect covering both (the bounding hyperrectangle). */
    HyperRect boundingUnion(const HyperRect &o) const;

    /** Rect translated by @p dist along dimension @p dim. */
    HyperRect shifted(unsigned dim, Coord dist) const;

    /** Rect with dimension @p dim replaced by [p, q). */
    HyperRect withDim(unsigned dim, Coord p, Coord q) const;

    /** Equal rank and equal bounds in every dim (the inline slots past
     * the rank do not take part). */
    bool
    operator==(const HyperRect &o) const
    {
        return rank_ == o.rank_ &&
               std::equal(lo_.begin(), lo_.begin() + rank_, o.lo_.begin()) &&
               std::equal(hi_.begin(), hi_.begin() + rank_, o.hi_.begin());
    }

    /** "[p0,q0)x[p1,q1)" rendering for diagnostics. */
    std::string str() const;

  private:
    void
    checkDim(unsigned d) const
    {
        infs_assert(d < dims(), "dim %u out of rank %u", d, dims());
    }

    void
    setRank(std::size_t n)
    {
        infs_assert(n <= kMaxRank, "rank %zu exceeds HyperRect::kMaxRank %u",
                    n, kMaxRank);
        rank_ = static_cast<unsigned>(n);
    }

    void
    assign(const Coord *lo, const Coord *hi, std::size_t nlo, std::size_t nhi)
    {
        infs_assert(nlo == nhi, "bound rank mismatch");
        setRank(nlo);
        std::copy(lo, lo + nlo, lo_.begin());
        std::copy(hi, hi + nhi, hi_.begin());
    }

    std::array<Coord, kMaxRank> lo_{};
    std::array<Coord, kMaxRank> hi_{};
    unsigned rank_ = 0;
};

} // namespace infs

#endif // INFS_TDFG_HYPERRECT_HH

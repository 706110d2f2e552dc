/**
 * @file
 * Hyperrectangles in the tDFG's global lattice space (§3.2). A tensor is a
 * hyperrectangle set of lattice cells [p0,q0) x ... x [pN-1,qN-1); compute
 * nodes operate on the intersection of their operands' rectangles.
 */

#ifndef INFS_TDFG_HYPERRECT_HH
#define INFS_TDFG_HYPERRECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace infs {

/** Coordinate in the lattice space. */
using Coord = std::int64_t;

/**
 * An N-dimensional half-open hyperrectangle in the lattice space.
 * Dimension 0 is the innermost / contiguous-in-address dimension.
 */
class HyperRect
{
  public:
    HyperRect() = default;

    /** Construct from per-dimension [lo, hi) bounds. */
    HyperRect(std::vector<Coord> lo, std::vector<Coord> hi)
        : lo_(std::move(lo)), hi_(std::move(hi))
    {
        infs_assert(lo_.size() == hi_.size(), "bound rank mismatch");
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
        return HyperRect(std::vector<Coord>(sizes.size(), 0), sizes);
    }

    unsigned dims() const { return static_cast<unsigned>(lo_.size()); }

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

    bool operator==(const HyperRect &o) const
    {
        return lo_ == o.lo_ && hi_ == o.hi_;
    }

    /** "[p0,q0)x[p1,q1)" rendering for diagnostics. */
    std::string str() const;

  private:
    void
    checkDim(unsigned d) const
    {
        infs_assert(d < dims(), "dim %u out of rank %u", d, dims());
    }

    std::vector<Coord> lo_;
    std::vector<Coord> hi_;
};

} // namespace infs

#endif // INFS_TDFG_HYPERRECT_HH

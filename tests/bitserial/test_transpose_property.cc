/**
 * @file
 * Property tests for the word-parallel transpose paths (DESIGN.md §10):
 * the tile-order chunked bit-transpose in BitAccurateFabric::loadArray/
 * storeArray and the word-level element/range primitives it rests on must
 * match per-element references bit-exactly for arbitrary shapes, tile
 * sizes, and alignments — and the bit-serial kernels must stop allocating
 * once their scratch pool is warm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "bitserial/bit_matrix.hh"
#include "bitserial/compute_sram.hh"
#include "sim/rng.hh"
#include "tdfg/hyperrect.hh"
#include "uarch/bit_exec.hh"

namespace infs {
namespace {

TEST(TransposeProperty, ElementReadWriteMatchesBitReference)
{
    Rng rng(11);
    BitMatrix bm(256, 256);
    for (int iter = 0; iter < 500; ++iter) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.next() % 33);
        const unsigned bl = static_cast<unsigned>(rng.next() % 256);
        const unsigned wl = static_cast<unsigned>(rng.next() % (256 - bits));
        const std::uint64_t v =
            rng.next() & ((bits == 64) ? ~0ULL : (1ULL << bits) - 1);
        bm.writeElement(bl, wl, bits, v);
        // Bit-by-bit reference of the transposed format: bit i of the
        // element lives at wordline wl + i of bitline bl.
        for (unsigned i = 0; i < bits; ++i)
            ASSERT_EQ(bm.get(wl + i, bl), (v >> i) & 1ULL);
        ASSERT_EQ(bm.readElement(bl, wl, bits), v);
    }
}

TEST(TransposeProperty, ExtractDepositRoundTripAnyAlignment)
{
    Rng rng(12);
    for (int iter = 0; iter < 300; ++iter) {
        const unsigned nbits = 65 + static_cast<unsigned>(rng.next() % 400);
        BitRow src(nbits), dst(nbits);
        for (unsigned i = 0; i < nbits; ++i) {
            src.set(i, rng.next() & 1);
            dst.set(i, rng.next() & 1);
        }
        const unsigned len = 1 + static_cast<unsigned>(rng.next() % nbits);
        const unsigned lo_s = static_cast<unsigned>(rng.next() %
                                                    (nbits - len + 1));
        const unsigned lo_d = static_cast<unsigned>(rng.next() %
                                                    (nbits - len + 1));
        std::vector<std::uint64_t> buf((len + 63) / 64);
        src.extractTo(buf.data(), lo_s, len);
        const BitRow before = dst;
        dst.depositFrom(buf.data(), lo_d, len);
        for (unsigned i = 0; i < nbits; ++i) {
            const bool expect = (i >= lo_d && i < lo_d + len)
                                    ? src.get(lo_s + (i - lo_d))
                                    : before.get(i);
            ASSERT_EQ(dst.get(i), expect)
                << "bit " << i << " lo_s " << lo_s << " lo_d " << lo_d
                << " len " << len;
        }
    }
}

TEST(TransposeProperty, FillRangeMatchesBitReference)
{
    Rng rng(13);
    for (int iter = 0; iter < 300; ++iter) {
        const unsigned nbits = 1 + static_cast<unsigned>(rng.next() % 500);
        BitRow row(nbits);
        for (unsigned i = 0; i < nbits; ++i)
            row.set(i, rng.next() & 1);
        const unsigned lo = static_cast<unsigned>(rng.next() % (nbits + 1));
        const unsigned hi =
            lo + static_cast<unsigned>(rng.next() % (nbits - lo + 1));
        const bool v = rng.next() & 1;
        const BitRow before = row;
        row.fillRange(lo, hi, v);
        for (unsigned i = 0; i < nbits; ++i)
            ASSERT_EQ(row.get(i),
                      (i >= lo && i < hi) ? v : before.get(i));
    }
}

TEST(TransposeProperty, FabricLoadStoreRoundTripRandomShapes)
{
    // The chunked 64-element bit-transpose must be the exact inverse of
    // itself for any shape/tile combination, including tile sizes that
    // do not divide the shape and runs that straddle 64-bit word edges.
    Rng rng(14);
    for (int iter = 0; iter < 25; ++iter) {
        const unsigned nd = 1 + static_cast<unsigned>(rng.next() % 3);
        std::vector<Coord> shape(nd), tsz(nd);
        std::int64_t vol = 1;
        for (unsigned d = 0; d < nd; ++d) {
            shape[d] = 2 + static_cast<Coord>(rng.next() % (nd > 2 ? 9 : 40));
            vol *= shape[d];
        }
        // Tile volume must fit the 256 bitlines.
        for (unsigned d = 0; d < nd; ++d)
            tsz[d] = 1 + static_cast<Coord>(
                             rng.next() % std::min<Coord>(shape[d], 6));
        TiledLayout lay(shape, tsz);
        BitAccurateFabric fab(lay);

        std::vector<float> in(static_cast<std::size_t>(vol)),
            out(static_cast<std::size_t>(vol));
        for (auto &v : in)
            v = rng.nextFloat(-1e6f, 1e6f);
        fab.loadArray(in, 3);
        fab.storeArray(out, 3);
        for (std::size_t i = 0; i < in.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(in[i]),
                      std::bit_cast<std::uint32_t>(out[i]))
                << "iter " << iter << " elem " << i;

        // The dense order must be the lattice order: spot-check elements
        // against the per-point accessor.
        for (int probe = 0; probe < 8; ++probe) {
            std::vector<Coord> pt(nd);
            std::size_t idx = 0;
            std::int64_t mul = 1;
            for (unsigned d = 0; d < nd; ++d) {
                pt[d] = static_cast<Coord>(
                    rng.next() % static_cast<std::uint64_t>(shape[d]));
                idx += static_cast<std::size_t>(pt[d] * mul);
                mul *= shape[d];
            }
            ASSERT_EQ(std::bit_cast<std::uint32_t>(fab.element(pt, 3)),
                      std::bit_cast<std::uint32_t>(in[idx]));
        }
    }
}

/** One tile-order transfer case: a shape and its tile. */
struct TransferCase {
    std::vector<Coord> shape;
    std::vector<Coord> tile;
};

/** The fixed edge cases plus random rank-1..3 layouts. */
std::vector<TransferCase>
transferCases()
{
    std::vector<TransferCase> cases = {
        {{4, 300}, {1, 256}},        // 1x256, partial along dim 1
        {{5, 40}, {1, 100}},         // 1xk with k beyond the shape
        {{3, 70}, {1, 64}},          // 1x64, word-aligned rows
        {{7, 9, 3}, {1, 16, 4}},     // rank 3, tile0 = 1, partial dims
        {{37}, {200}},               // rank 1, one partial tile
        {{300}, {100}},              // rank 1, volume not a 64 multiple
        {{50, 7}, {13, 7}},          // tile volume 91
        {{130, 3}, {130, 1}},        // one row per tile, 130 bitlines
        {{20, 6, 5}, {8, 4, 3}},     // every dim partial
    };
    Rng rng(16);
    for (int iter = 0; iter < 30; ++iter) {
        const unsigned nd = 1 + static_cast<unsigned>(rng.next() % 3);
        TransferCase c{std::vector<Coord>(nd), std::vector<Coord>(nd)};
        std::int64_t tvol = 1;
        for (unsigned d = 0; d < nd; ++d) {
            c.shape[d] = 1 + static_cast<Coord>(
                                 rng.next() % (nd == 1 ? 300 : 40 / nd));
            // Keep the tile volume within the 256 bitlines.
            const Coord cap = std::max<Coord>(1, 256 / tvol);
            c.tile[d] = 1 + static_cast<Coord>(
                                rng.next() % std::min<Coord>(cap, 70));
            tvol *= c.tile[d];
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Every wordline of every tile of @p fab filled with random bits. */
void
randomizeTiles(BitAccurateFabric &fab, Rng &rng)
{
    for (std::int64_t t = 0; t < fab.layout().numTiles(); ++t) {
        BitMatrix &bm = fab.tile(t).bits();
        for (unsigned wl = 0; wl < bm.wordlines(); ++wl)
            for (unsigned w = 0; w < (bm.bitlines() + 63) / 64; ++w)
                bm.row(wl).mergeWordMasked(w, rng.next(), ~0ULL);
    }
}

/** Lattice coordinate of dense (row-major, dim 0 innermost) index i. */
std::vector<Coord>
latticePoint(const std::vector<Coord> &shape, std::int64_t i)
{
    std::vector<Coord> pt(shape.size());
    for (std::size_t d = 0; d < shape.size(); ++d) {
        pt[d] = i % shape[d];
        i /= shape[d];
    }
    return pt;
}

TEST(TransposeProperty, TileOrderLoadMatchesPerElementReference)
{
    // loadArray must write exactly what one writeElement per lattice
    // element would: every element at its bitline, and nothing else —
    // bitlines that hold no cell and wordlines outside the slot keep
    // their random contents.
    Rng rng(17);
    for (const TransferCase &c : transferCases()) {
        SCOPED_TRACE(::testing::Message()
                     << "shape " << ::testing::PrintToString(c.shape)
                     << " tile " << ::testing::PrintToString(c.tile));
        TiledLayout lay(c.shape, c.tile);
        BitAccurateFabric fab(lay);
        randomizeTiles(fab, rng);
        const unsigned wl = static_cast<unsigned>(rng.next() % 225);
        std::vector<BitMatrix> ref;
        for (std::int64_t t = 0; t < lay.numTiles(); ++t)
            ref.push_back(fab.tile(t).bits());

        const std::int64_t vol = HyperRect::array(c.shape).volume();
        std::vector<float> in(static_cast<std::size_t>(vol));
        for (std::int64_t i = 0; i < vol; ++i) {
            in[static_cast<std::size_t>(i)] = rng.nextFloat(-1e6f, 1e6f);
            const auto pt = latticePoint(c.shape, i);
            ref[static_cast<std::size_t>(lay.tileOf(pt))].writeElement(
                static_cast<unsigned>(lay.positionInTile(pt)), wl, 32,
                std::bit_cast<std::uint32_t>(
                    in[static_cast<std::size_t>(i)]));
        }
        fab.loadArray(in, wl);
        for (std::int64_t t = 0; t < lay.numTiles(); ++t) {
            const BitMatrix &got = fab.tile(t).bits();
            for (unsigned w = 0; w < got.wordlines(); ++w)
                ASSERT_TRUE(got.row(w) ==
                            ref[static_cast<std::size_t>(t)].row(w))
                    << "tile " << t << " wordline " << w;
        }
    }
}

TEST(TransposeProperty, TileOrderStoreMatchesPerElementReference)
{
    // storeArray must read every element from its bitline, whatever the
    // other bitlines and wordlines hold.
    Rng rng(18);
    for (const TransferCase &c : transferCases()) {
        SCOPED_TRACE(::testing::Message()
                     << "shape " << ::testing::PrintToString(c.shape)
                     << " tile " << ::testing::PrintToString(c.tile));
        TiledLayout lay(c.shape, c.tile);
        BitAccurateFabric fab(lay);
        randomizeTiles(fab, rng);
        const unsigned wl = static_cast<unsigned>(rng.next() % 225);
        const std::int64_t vol = HyperRect::array(c.shape).volume();
        std::vector<float> out(static_cast<std::size_t>(vol));
        fab.storeArray(out, wl);
        for (std::int64_t i = 0; i < vol; ++i) {
            const auto pt = latticePoint(c.shape, i);
            const std::uint64_t want =
                fab.tile(lay.tileOf(pt))
                    .bits()
                    .readElement(
                        static_cast<unsigned>(lay.positionInTile(pt)), wl,
                        32);
            ASSERT_EQ(std::bit_cast<std::uint32_t>(
                          out[static_cast<std::size_t>(i)]),
                      want)
                << "element " << i;
        }
    }
}

TEST(TransposeProperty, KernelsStopAllocatingOnceScratchIsWarm)
{
    // The per-bit loops of the word-parallel kernels draw rows from the
    // ComputeSram scratch pool; after a warm-up pass the pool is sized
    // for the widest kernel and steady-state execution performs zero
    // heap allocation (the PR's no-alloc acceptance gate).
    ComputeSram s(256, 256);
    Rng rng(15);
    for (unsigned bl = 0; bl < 256; ++bl) {
        s.writeFloat(bl, 0, rng.nextFloat(-100, 100));
        s.writeFloat(bl, 32, rng.nextFloat(-100, 100));
    }
    const BitRow mask = s.fullMask();
    auto exercise = [&] {
        s.execBinary(BitOp::Add, DType::Fp32, 0, 32, 64, mask);
        s.execBinary(BitOp::Mul, DType::Fp32, 0, 32, 96, mask);
        s.execBinary(BitOp::Sub, DType::Fp32, 0, 32, 128, mask);
        s.execBinary(BitOp::Max, DType::Fp32, 0, 32, 160, mask);
    };
    exercise(); // Warm the scratch pool.
    const std::uint64_t warm = s.scratchAllocs();
    exercise();
    exercise();
    EXPECT_EQ(s.scratchAllocs(), warm)
        << "bit-serial kernels allocated in steady state";
}

} // namespace
} // namespace infs

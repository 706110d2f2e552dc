#include <gtest/gtest.h>

#include "jit/tiling.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

L3Config
l3()
{
    return L3Config{};
}

TEST(Tiling, ValidTilesSatisfyConstraints)
{
    TilingPolicy pol(l3());
    // 2k x 2k fp32 array (Table 3): L = 16 elems/line.
    auto tiles = pol.validTiles({2048, 2048}, 4);
    ASSERT_FALSE(tiles.empty());
    const std::int64_t B = 256;
    const std::int64_t W = 16 * 16;
    const std::int64_t L = 16;
    for (const auto &t : tiles) {
        std::int64_t prod = 1;
        for (Coord v : t)
            prod *= v;
        EXPECT_EQ(prod, B);                    // Constraint 1.
        EXPECT_EQ((t[0] * W) % L, 0);          // Constraint 2.
    }
    // All power-of-two factorizations of 256 over 2 dims: 9 options.
    EXPECT_EQ(tiles.size(), 9u);
}

TEST(Tiling, UnalignedInnermostDimDisablesInMemory)
{
    TilingPolicy pol(l3());
    // S0 = 1000 not divisible by 16 -> in-memory computing disabled.
    EXPECT_TRUE(pol.validTiles({1000, 64}, 4).empty());
    // But 1024 works.
    EXPECT_FALSE(pol.validTiles({1024, 64}, 4).empty());
}

TEST(Tiling, ShiftPrefersSquare)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.shiftDims = {0, 1};
    TileDecision d = pol.choose({2048, 2048}, 4, hints);
    ASSERT_TRUE(d.valid);
    // §8: "picking a balanced tile size (16x16 for 2D arrays)".
    EXPECT_EQ(d.tile, (std::vector<Coord>{16, 16}));
}

TEST(Tiling, ReducePrefersLargeReducedDim)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 0;
    hints.broadcastDims = {1};
    // kmeans/in-like: reduced dim has extent 128; tiling by 128 allows
    // pure in-memory reduction (§8 Fig 16 discussion).
    TileDecision d = pol.choose({128, 32768}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.tile[0], 128);
    EXPECT_EQ(d.tile[1], 2);
}

TEST(Tiling, BroadcastPrefersSmallInnermost)
{
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.broadcastDims = {0, 1};
    TileDecision d = pol.choose({2048, 2048}, 4, hints);
    ASSERT_TRUE(d.valid);
    // Smallest valid innermost tile (constraint 2 allows T0 = 1 since
    // W = 256 is a multiple of L = 16).
    EXPECT_EQ(d.tile[0], 1);
}

TEST(Tiling, ReductionOutranksBroadcast)
{
    // §4.1 priority: reduction > broadcast. With no shifts, the reduced
    // dimension takes the whole tile even though broadcast would prefer
    // a small innermost tile on the same axis.
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 1;
    hints.broadcastDims = {0};
    TileDecision d = pol.choose({4096, 4096}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.tile[1], 256);
}

TEST(Tiling, ShiftsTemperTheReducedDimension)
{
    // With shifts in play the balanced tile beats an extreme reduced-dim
    // tile (conv3d's regime, Fig 17): the reduced dimension still gets a
    // larger share than a pure-shift square would give it.
    TilingPolicy pol(l3());
    LayoutHints hints;
    hints.reduceDim = 2;
    hints.shiftDims = {0, 1};
    TileDecision d = pol.choose({256, 256, 64}, 4, hints);
    ASSERT_TRUE(d.valid);
    EXPECT_LT(d.tile[2], 64);  // Not the extreme full-reduce tile...
    EXPECT_GT(d.tile[2], 1);   // ...but more than a pure-shift square.
}

TEST(Tiling, HintsFromGraph)
{
    TdfgGraph g(2);
    NodeId a = g.tensor(0, HyperRect::box2(0, 64, 0, 64));
    NodeId m = g.move(a, 0, 1);
    NodeId b = g.broadcast(a, 1, 0, 2);
    NodeId r = g.reduce(g.compute(BitOp::Add, {m, b}), BitOp::Add, 1);
    (void)r;
    LayoutHints h = LayoutHints::fromGraph(g);
    EXPECT_TRUE(h.shiftDims.count(0));
    EXPECT_TRUE(h.broadcastDims.count(1));
    ASSERT_TRUE(h.reduceDim.has_value());
    EXPECT_EQ(*h.reduceDim, 1u);
}

TEST(TiledLayout, TileIndexingRoundTrip)
{
    TiledLayout lay({64, 32}, {16, 16});
    EXPECT_EQ(lay.grid(), (std::vector<Coord>{4, 2}));
    EXPECT_EQ(lay.numTiles(), 8);
    EXPECT_EQ(lay.tileVolume(), 256);
    EXPECT_EQ(lay.tileOf({0, 0}), 0);
    EXPECT_EQ(lay.tileOf({16, 0}), 1);
    EXPECT_EQ(lay.tileOf({0, 16}), 4);
    EXPECT_EQ(lay.tileOf({63, 31}), 7);
    EXPECT_EQ(lay.positionInTile({17, 2}), 1 + 2 * 16);
}

TEST(TiledLayout, BoundaryTiles)
{
    // 20x10 with 16x16 tiles: 2x1 grid, boundary tiles with unused
    // bitlines (§4.1 "boundary tiles with unused bitlines").
    TiledLayout lay({20, 10}, {16, 16});
    EXPECT_EQ(lay.numTiles(), 2);
    EXPECT_EQ(lay.tileOf({19, 9}), 1);
}

TEST(TiledLayout, TilesIntersecting)
{
    TiledLayout lay({64, 64}, {16, 16});
    auto all = lay.tilesIntersecting(HyperRect::box2(0, 64, 0, 64));
    EXPECT_EQ(all.size(), 16u);
    auto one = lay.tilesIntersecting(HyperRect::box2(3, 5, 3, 5));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 0);
    auto row = lay.tilesIntersecting(HyperRect::box2(0, 64, 16, 17));
    EXPECT_EQ(row.size(), 4u);
    // Out-of-array coordinates are clamped.
    auto clamped = lay.tilesIntersecting(HyperRect::box2(-5, 8, 60, 99));
    ASSERT_EQ(clamped.size(), 1u);
    EXPECT_EQ(clamped[0], 12);
}

TEST(TiledLayout, BanksForContiguousMapping)
{
    AddressMap map(L3Config{});
    TiledLayout lay({2048, 2048}, {16, 16});
    EXPECT_EQ(lay.numTiles(), 128 * 128);
    // With the contiguous tile->array mapping (256 arrays/bank), one
    // row of 128 tiles stays within a single bank...
    auto row = lay.banksFor(HyperRect::box2(0, 2048, 0, 16), map);
    EXPECT_EQ(row.size(), 1u);
    // ...while the whole array (16384 tiles) covers all 64 banks.
    auto all = lay.banksFor(HyperRect::box2(0, 2048, 0, 2048), map);
    EXPECT_EQ(all.size(), 64u);
    // A single tile -> one bank.
    auto one = lay.banksFor(HyperRect::box2(0, 16, 0, 16), map);
    EXPECT_EQ(one.size(), 1u);
}

/** Reference for banksFor: map every intersecting tile to its bank. */
BankSet
banksByTileWalk(const TiledLayout &lay, const HyperRect &r,
                const AddressMap &map)
{
    BankSet banks;
    for (std::int64_t t : lay.tilesIntersecting(r))
        banks.insert(map.tileToArray(static_cast<std::uint64_t>(t)).bank);
    return banks;
}

/** Reference for maskedCoordCount: test every coordinate. */
std::int64_t
maskedCountByWalk(Coord lo, Coord hi, Coord tile, Coord mask_lo,
                  Coord mask_hi)
{
    std::int64_t n = 0;
    for (Coord x = lo; x < hi; ++x) {
        Coord pos = ((x % tile) + tile) % tile;
        if (pos >= mask_lo && pos < mask_hi)
            ++n;
    }
    return n;
}

TEST(TiledLayout, BanksForMatchesTileWalk)
{
    // Random rank-1..3 layouts on L3s whose bank and arrays-per-bank
    // counts need not be powers of two, with clamped, out-of-bounds and
    // empty rects. Small L3s force layouts with more tiles than arrays,
    // whose indices wrap onto the array pool.
    Rng rng(12);
    int wrapped = 0, empty = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        L3Config l3;
        l3.numBanks = 1 + static_cast<unsigned>(rng.nextBounded(9));
        l3.computeWays = 1 + static_cast<unsigned>(rng.nextBounded(3));
        l3.arraysPerWay = 1 + static_cast<unsigned>(rng.nextBounded(4));
        AddressMap map(l3);
        const unsigned nd = 1 + static_cast<unsigned>(rng.nextBounded(3));
        const Coord max_extent = nd == 3 ? 16 : 40;
        std::vector<Coord> shape(nd), tile(nd), lo(nd), hi(nd);
        for (unsigned d = 0; d < nd; ++d) {
            shape[d] = 1 + static_cast<Coord>(rng.nextBounded(max_extent));
            tile[d] = 1 + static_cast<Coord>(rng.nextBounded(8));
            lo[d] = static_cast<Coord>(rng.nextBounded(shape[d] + 8)) - 4;
            const auto span =
                static_cast<Coord>(rng.nextBounded(shape[d] + 6));
            hi[d] = lo[d] + span - 1;
        }
        TiledLayout lay(shape, tile);
        HyperRect r(lo, hi);
        BankSet got = lay.banksFor(r, map);
        ASSERT_EQ(got, banksByTileWalk(lay, r, map))
            << "iter " << iter << " rect " << r.str();
        wrapped += lay.numTiles() > static_cast<std::int64_t>(
                                        map.totalArrays());
        empty += got.empty();
    }
    // Both edge cases really occurred.
    EXPECT_GT(wrapped, 1000);
    EXPECT_GT(empty, 1000);

    // 5 banks x 6 arrays, and the paper-scale layout (two tile rows per
    // bank, the case that defeated the per-tile walk's early exit).
    L3Config odd;
    odd.numBanks = 5;
    odd.computeWays = 2;
    odd.arraysPerWay = 3;
    AddressMap odd_map(odd);
    TiledLayout small({40, 30}, {4, 2});
    AddressMap paper_map(L3Config{});
    TiledLayout paper({2048, 2048}, {16, 16});
    for (const HyperRect &r :
         {HyperRect::box2(0, 40, 0, 30), HyperRect::box2(5, 9, 3, 27),
          HyperRect::box2(-3, 2, 29, 40), HyperRect::box2(12, 13, 0, 30)}) {
        EXPECT_EQ(small.banksFor(r, odd_map),
                  banksByTileWalk(small, r, odd_map))
            << r.str();
    }
    for (const HyperRect &r :
         {HyperRect::box2(1, 2048, 1, 2048), HyperRect::box2(7, 8, 0, 2048),
          HyperRect::box2(0, 2048, 100, 131),
          HyperRect::box2(17, 500, 1000, 1500)}) {
        EXPECT_EQ(paper.banksFor(r, paper_map),
                  banksByTileWalk(paper, r, paper_map))
            << r.str();
    }

    // Rects spanning the leading one or two dims fully, whose runs merge
    // across dims, on the same random machines and layouts.
    int merged = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        L3Config l3;
        l3.numBanks = 1 + static_cast<unsigned>(rng.nextBounded(9));
        l3.computeWays = 1 + static_cast<unsigned>(rng.nextBounded(3));
        l3.arraysPerWay = 1 + static_cast<unsigned>(rng.nextBounded(4));
        AddressMap map(l3);
        const unsigned nd = 2 + static_cast<unsigned>(rng.nextBounded(2));
        const unsigned full = 1 + static_cast<unsigned>(rng.nextBounded(2));
        const Coord max_extent = nd == 3 ? 16 : 40;
        std::vector<Coord> shape(nd), tile(nd), lo(nd), hi(nd);
        for (unsigned d = 0; d < nd; ++d) {
            shape[d] = 1 + static_cast<Coord>(rng.nextBounded(max_extent));
            tile[d] = 1 + static_cast<Coord>(rng.nextBounded(8));
            if (d < full) {
                lo[d] = -static_cast<Coord>(rng.nextBounded(3));
                hi[d] = shape[d] + static_cast<Coord>(rng.nextBounded(3));
            } else {
                lo[d] = static_cast<Coord>(rng.nextBounded(shape[d]));
                hi[d] = lo[d] + 1 +
                        static_cast<Coord>(rng.nextBounded(shape[d]));
            }
        }
        TiledLayout lay(shape, tile);
        HyperRect r(lo, hi);
        ASSERT_EQ(lay.banksFor(r, map), banksByTileWalk(lay, r, map))
            << "iter " << iter << " rect " << r.str();
        merged += full < nd && lay.grid()[0] > 1;
    }
    EXPECT_GT(merged, 10000);

    // gauss_elim(2048)'s layout: {1, 256} tiles, one per pivot row
    // segment. Its regions are one-column strips and shrinking [k+1, n)
    // boxes, at every pivot step k.
    TiledLayout gauss({2048, 2048}, {1, 256});
    for (Coord k = 0; k < 2047; k += 1 + k / 8) {
        for (const HyperRect &r :
             {HyperRect::box2(k, k + 1, k + 1, 2048),
              HyperRect::box2(k, k + 1, k, k + 1),
              HyperRect::box2(k + 1, 2048, k, k + 1),
              HyperRect::box2(k + 1, 2048, k + 1, 2048),
              HyperRect::box2(0, 2048, k + 1, 2048)}) {
            ASSERT_EQ(gauss.banksFor(r, paper_map),
                      banksByTileWalk(gauss, r, paper_map))
                << r.str();
        }
    }

    // A stencil3d(512, 512, 16)-like rank-3 layout: the interior and its
    // six one-cell shifts, plus thin slabs along each dim.
    for (const std::vector<Coord> &tile3 :
         {std::vector<Coord>{16, 4, 4}, std::vector<Coord>{32, 8, 1},
          std::vector<Coord>{4, 4, 16}}) {
        TiledLayout cube({512, 512, 16}, tile3);
        const HyperRect inner = HyperRect::box3(1, 511, 1, 511, 1, 15);
        std::vector<HyperRect> rects = {
            inner, HyperRect::box3(0, 512, 0, 512, 3, 4),
            HyperRect::box3(0, 512, 40, 41, 0, 16),
            HyperRect::box3(300, 301, 0, 512, 0, 16),
            HyperRect::box3(0, 512, 0, 512, 0, 16)};
        for (unsigned dim = 0; dim < 3; ++dim)
            for (Coord d : {Coord(-1), Coord(1)})
                rects.push_back(inner.shifted(dim, d));
        for (const HyperRect &r : rects) {
            ASSERT_EQ(cube.banksFor(r, paper_map),
                      banksByTileWalk(cube, r, paper_map))
                << r.str();
        }
    }

    // More banks than one 64-bit word of the bank set holds: a
    // multiple of 64 (128) and two that are not (65, 100), with layouts
    // that fit the arrays and layouts that wrap onto them.
    for (unsigned num_banks : {65u, 100u, 128u}) {
        int high_bank = 0, wrapped_wide = 0;
        for (int iter = 0; iter < 3000; ++iter) {
            L3Config l3;
            l3.numBanks = num_banks;
            l3.computeWays = 1 + static_cast<unsigned>(rng.nextBounded(2));
            l3.arraysPerWay = 1 + static_cast<unsigned>(rng.nextBounded(2));
            AddressMap map(l3);
            const unsigned nd = 1 + static_cast<unsigned>(rng.nextBounded(3));
            const Coord max_extent = nd == 1 ? 1200 : nd == 2 ? 60 : 16;
            std::vector<Coord> shape(nd), tile(nd), lo(nd), hi(nd);
            for (unsigned d = 0; d < nd; ++d) {
                shape[d] = 1 + static_cast<Coord>(rng.nextBounded(max_extent));
                tile[d] = 1 + static_cast<Coord>(rng.nextBounded(4));
                lo[d] = static_cast<Coord>(rng.nextBounded(shape[d] + 4)) - 2;
                hi[d] = lo[d] + static_cast<Coord>(rng.nextBounded(
                                    shape[d] + 4)) - 1;
            }
            TiledLayout lay(shape, tile);
            HyperRect r(lo, hi);
            BankSet got = lay.banksFor(r, map);
            ASSERT_EQ(got, banksByTileWalk(lay, r, map))
                << num_banks << " banks, iter " << iter << " rect "
                << r.str();
            bool high = false;
            got.forEach([&](BankId b) { high |= b >= 64; });
            high_bank += high;
            wrapped_wide += lay.numTiles() > static_cast<std::int64_t>(
                                                 map.totalArrays());
        }
        // Banks past the first mask word, and wrapping layouts, occurred.
        EXPECT_GT(high_bank, 300) << num_banks << " banks";
        EXPECT_GT(wrapped_wide, 100) << num_banks << " banks";
    }
}

TEST(TiledLayout, MaskedCoordCountMatchesWalk)
{
    // Negative range starts, masks partly or wholly outside [0, tile),
    // and empty ranges and masks.
    EXPECT_EQ(maskedCoordCount(-5, 7, 4, 1, 3), 6);
    EXPECT_EQ(maskedCoordCount(3, 3, 4, 0, 4), 0);
    EXPECT_EQ(maskedCoordCount(9, 2, 4, 0, 4), 0);
    EXPECT_EQ(maskedCoordCount(0, 64, 16, -3, 40), 64);
    EXPECT_EQ(maskedCoordCount(0, 64, 16, 5, 5), 0);
    EXPECT_EQ(maskedCoordCount(0, 64, 16, 20, 30), 0);
    Rng rng(34);
    for (int iter = 0; iter < 200000; ++iter) {
        const Coord tile = 1 + static_cast<Coord>(rng.nextBounded(20));
        const Coord lo = static_cast<Coord>(rng.nextBounded(201)) - 100;
        const Coord hi = lo + static_cast<Coord>(rng.nextBounded(204)) - 3;
        const Coord mask_lo =
            static_cast<Coord>(rng.nextBounded(tile + 9)) - 5;
        const Coord mask_hi =
            mask_lo + static_cast<Coord>(rng.nextBounded(tile + 9)) - 3;
        ASSERT_EQ(maskedCoordCount(lo, hi, tile, mask_lo, mask_hi),
                  maskedCountByWalk(lo, hi, tile, mask_lo, mask_hi))
            << "[" << lo << "," << hi << ") tile " << tile << " mask ["
            << mask_lo << "," << mask_hi << ")";
    }
}

TEST(TiledLayout, MakeReportsLayoutConstraintViolations)
{
    auto bad_rank = TiledLayout::make({128, 128}, {16});
    ASSERT_FALSE(bad_rank.ok());
    EXPECT_EQ(bad_rank.error().code, ErrCode::LayoutConstraint);
    auto bad_tile = TiledLayout::make({128}, {0});
    ASSERT_FALSE(bad_tile.ok());
    EXPECT_EQ(bad_tile.error().code, ErrCode::LayoutConstraint);
    auto good = TiledLayout::make({128}, {16});
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good->numTiles(), 8);
}

TEST(TiledLayout, FitsChecksCapacity)
{
    AddressMap map(L3Config{});
    // 4M elements at 1 elem/bitline = 16384 tiles = exactly all arrays.
    TiledLayout ok({4096, 1024}, {16, 16});
    EXPECT_TRUE(ok.fits(map));
    TiledLayout too_big({8192, 1024}, {16, 16});
    EXPECT_FALSE(too_big.fits(map));
}

} // namespace
} // namespace infs

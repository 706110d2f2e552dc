/**
 * @file
 * Tests for the tile-mask memo (DESIGN.md §10): every cached mask must
 * equal a fresh uncached build, and the memo is keyed by tile-relative
 * geometry — tiles whose clips match relative to their origin share one
 * entry, while the positional window keeps commands apart.
 */

#include <gtest/gtest.h>

#include <vector>

#include "jit/commands.hh"
#include "sim/rng.hh"
#include "uarch/bit_exec.hh"

namespace infs {
namespace {

InMemCommand
randomMaskCmd(Rng &rng, const std::vector<Coord> &shape,
              const std::vector<Coord> &tsz)
{
    const unsigned nd = static_cast<unsigned>(shape.size());
    InMemCommand cmd;
    std::vector<Coord> lo(nd), hi(nd);
    for (unsigned d = 0; d < nd; ++d) {
        lo[d] = static_cast<Coord>(
            rng.next() % static_cast<std::uint64_t>(shape[d]));
        hi[d] = lo[d] + 1 +
                static_cast<Coord>(
                    rng.next() %
                    static_cast<std::uint64_t>(shape[d] - lo[d]));
    }
    cmd.tensor = HyperRect(lo, hi);
    cmd.dim = static_cast<unsigned>(rng.next() % nd);
    // Positional window inside the tile (may be empty or full).
    const auto tk = static_cast<std::uint64_t>(tsz[cmd.dim]);
    cmd.maskLo = static_cast<Coord>(rng.next() % tk);
    cmd.maskHi = cmd.maskLo + 1 + static_cast<Coord>(rng.next() % tk);
    return cmd;
}

TEST(MaskCache, CachedEqualsUncachedRandomized)
{
    Rng rng(31);
    for (int round = 0; round < 8; ++round) {
        const unsigned nd = 1 + static_cast<unsigned>(rng.next() % 2);
        std::vector<Coord> shape(nd), tsz(nd);
        for (unsigned d = 0; d < nd; ++d) {
            shape[d] = 8 + static_cast<Coord>(rng.next() % 40);
            tsz[d] = 2 + static_cast<Coord>(
                             rng.next() % std::min<Coord>(shape[d], 12));
        }
        TiledLayout lay(shape, tsz);
        BitAccurateFabric fab(lay);
        for (int c = 0; c < 20; ++c) {
            InMemCommand cmd = randomMaskCmd(rng, shape, tsz);
            for (bool shift_mask : {false, true})
                for (std::int64_t t = 0; t < lay.numTiles(); ++t) {
                    const BitRow &cached =
                        fab.tileMask(cmd, t, shift_mask);
                    ASSERT_EQ(cached,
                              fab.tileMaskUncached(cmd, t, shift_mask))
                        << "round " << round << " cmd " << c << " tile "
                        << t << " shift_mask " << shift_mask;
                }
        }
    }
}

TEST(MaskCache, RepeatLookupsHitAndStayStable)
{
    TiledLayout lay({64, 48}, {16, 8});
    BitAccurateFabric fab(lay);
    Rng rng(32);
    InMemCommand cmd = randomMaskCmd(rng, {64, 48}, {16, 8});

    const BitRow first = fab.tileMask(cmd, 3, true);
    const FabricStats cold = fab.stats();
    EXPECT_GT(cold.maskCacheMisses, 0u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fab.tileMask(cmd, 3, true), first);
    const FabricStats warm = fab.stats();
    EXPECT_EQ(warm.maskCacheMisses, cold.maskCacheMisses);
    EXPECT_EQ(warm.maskCacheHits, cold.maskCacheHits + 10);
}

/** A Compute command over @p tensor with no positional window. */
InMemCommand
computeCmd(HyperRect tensor)
{
    InMemCommand cmd;
    cmd.tensor = std::move(tensor);
    cmd.wlA = 0;
    cmd.wlB = 32;
    cmd.wlDst = 64;
    return cmd;
}

TEST(MaskCache, WholeArrayComputeMissesOnce)
{
    // 4 x 6 interior tiles, all with the full clip [0,16) x [0,8).
    TiledLayout lay({64, 48}, {16, 8});
    BitAccurateFabric fab(lay);
    fab.executeCommand(computeCmd(HyperRect::array({64, 48})));
    const FabricStats s = fab.stats();
    EXPECT_EQ(s.maskCacheMisses, 1u);
    EXPECT_EQ(s.maskCacheHits,
              static_cast<std::uint64_t>(lay.numTiles()) - 1);
}

TEST(MaskCache, RaggedShapeMissesOncePerRelativeClip)
{
    // A 70 x 45 array on 16 x 8 tiles has ragged last tiles in both dims,
    // so a tensor cut inside the first and last tiles has at most three
    // distinct relative clips per dim: first, interior, last.
    TiledLayout lay({70, 45}, {16, 8});
    {
        BitAccurateFabric fab(lay);
        const HyperRect cut = HyperRect::box2(3, 67, 2, 43);
        fab.executeCommand(computeCmd(cut));
        const FabricStats s = fab.stats();
        EXPECT_EQ(s.maskCacheMisses, 9u);
        EXPECT_EQ(s.maskCacheHits + s.maskCacheMisses,
                  static_cast<std::uint64_t>(
                      lay.countTilesIntersecting(cut)));
    }
    {
        // A tensor overhanging the array clips to the shape: the last
        // tiles' clips end at the array edge, not the tile edge.
        BitAccurateFabric fab(lay);
        const InMemCommand cmd =
            computeCmd(HyperRect::box2(-5, 80, -3, 50));
        for (std::int64_t t = 0; t < lay.numTiles(); ++t)
            ASSERT_EQ(fab.tileMask(cmd, t, false),
                      fab.tileMaskUncached(cmd, t, false))
                << "tile " << t;
        EXPECT_EQ(fab.stats().maskCacheMisses, 4u);
    }
    Rng rng(34);
    for (int c = 0; c < 50; ++c) {
        BitAccurateFabric fab(lay);
        const InMemCommand cmd = randomMaskCmd(rng, {70, 45}, {16, 8});
        for (bool shift_mask : {false, true}) {
            const FabricStats before = fab.stats();
            for (std::int64_t t : lay.tilesIntersecting(cmd.tensor))
                ASSERT_EQ(fab.tileMask(cmd, t, shift_mask),
                          fab.tileMaskUncached(cmd, t, shift_mask))
                    << "cmd " << c << " tile " << t;
            EXPECT_LE(fab.stats().maskCacheMisses - before.maskCacheMisses,
                      9u)
                << "cmd " << c << " shift_mask " << shift_mask;
        }
    }
}

TEST(MaskCache, MatchingRelativeClipsShareOneEntry)
{
    TiledLayout lay({64, 48}, {16, 8});
    BitAccurateFabric fab(lay);
    // [2,14) x [1,7) in tile (0,0) and [34,46) x [25,31) in tile (2,3):
    // different absolute bounds, the same clip relative to each origin.
    InMemCommand a = computeCmd(HyperRect::box2(2, 14, 1, 7));
    InMemCommand b = computeCmd(HyperRect::box2(34, 46, 25, 31));
    for (InMemCommand *cmd : {&a, &b}) {
        cmd->dim = 1;
        cmd->maskLo = 2;
        cmd->maskHi = 6;
    }
    const std::int64_t ta = lay.tileOf({2, 1});
    const std::int64_t tb = lay.tileOf({34, 25});
    ASSERT_NE(ta, tb);
    for (bool shift_mask : {false, true}) {
        const BitRow &ma = fab.tileMask(a, ta, shift_mask);
        const BitRow &mb = fab.tileMask(b, tb, shift_mask);
        EXPECT_EQ(&ma, &mb) << "shift_mask " << shift_mask;
        EXPECT_EQ(mb, fab.tileMaskUncached(b, tb, shift_mask));
    }
    const FabricStats s = fab.stats();
    EXPECT_EQ(s.maskCacheMisses, 2u);
    EXPECT_EQ(s.maskCacheHits, 2u);
}

TEST(MaskCache, PositionalFieldsKeepEntriesApart)
{
    TiledLayout lay({64, 48}, {16, 8});
    BitAccurateFabric fab(lay);
    InMemCommand base = computeCmd(HyperRect::array({64, 48}));
    base.dim = 0;
    base.maskLo = 2;
    base.maskHi = 6;
    InMemCommand lo = base, hi = base, dim = base;
    lo.maskLo = 3;
    hi.maskHi = 5;
    dim.dim = 1;
    const std::int64_t t = lay.tileOf({20, 10});
    std::vector<BitRow> masks;
    for (const InMemCommand *cmd : {&base, &lo, &hi, &dim}) {
        masks.push_back(fab.tileMask(*cmd, t, true));
        EXPECT_EQ(masks.back(), fab.tileMaskUncached(*cmd, t, true));
    }
    const FabricStats s = fab.stats();
    EXPECT_EQ(s.maskCacheMisses, 4u);
    EXPECT_EQ(s.maskCacheHits, 0u);
    for (std::size_t i = 0; i < masks.size(); ++i)
        for (std::size_t j = i + 1; j < masks.size(); ++j)
            EXPECT_FALSE(masks[i] == masks[j]) << i << " vs " << j;
}

} // namespace
} // namespace infs

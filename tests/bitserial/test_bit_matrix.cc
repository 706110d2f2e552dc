#include <gtest/gtest.h>

#include "bitserial/bit_matrix.hh"
#include "sim/rng.hh"

namespace infs {
namespace {

TEST(BitRow, SetGetClear)
{
    BitRow r(256);
    EXPECT_FALSE(r.any());
    r.set(0, true);
    r.set(63, true);
    r.set(64, true);
    r.set(255, true);
    EXPECT_TRUE(r.get(0));
    EXPECT_TRUE(r.get(63));
    EXPECT_TRUE(r.get(64));
    EXPECT_TRUE(r.get(255));
    EXPECT_FALSE(r.get(1));
    EXPECT_EQ(r.popcount(), 4u);
    r.clear();
    EXPECT_FALSE(r.any());
}

TEST(BitRow, SetRange)
{
    BitRow r(256);
    r.setRange(10, 20);
    EXPECT_EQ(r.popcount(), 10u);
    EXPECT_TRUE(r.get(10));
    EXPECT_TRUE(r.get(19));
    EXPECT_FALSE(r.get(20));
}

TEST(BitRow, NotMasksTailBits)
{
    BitRow a(100); // Non-multiple of 64 — tail must stay clean.
    BitRow all(100);
    all.setRange(0, 100);
    BitRow n(100);
    n.notAndInto(a, all);
    EXPECT_EQ(n.popcount(), 100u);
    n.notAndInto(n, all); // Aliasing-safe.
    EXPECT_EQ(n.popcount(), 0u);
}

TEST(BitRow, ShiftUpDown)
{
    BitRow r(256);
    r.set(0, true);
    r.set(100, true);
    BitRow up(256);
    up.assignShifted(r, 3);
    EXPECT_TRUE(up.get(3));
    EXPECT_TRUE(up.get(103));
    EXPECT_EQ(up.popcount(), 2u);
    BitRow down(256);
    down.assignShifted(up, -3);
    EXPECT_TRUE(down == r);
}

TEST(BitRow, ShiftDropsBitsAtEdges)
{
    BitRow r(256), out(256);
    r.set(255, true);
    out.assignShifted(r, 1);
    EXPECT_EQ(out.popcount(), 0u);
    r.clear();
    r.set(0, true);
    out.assignShifted(r, -1);
    EXPECT_EQ(out.popcount(), 0u);
}

TEST(BitRow, ShiftAcrossWordBoundary)
{
    BitRow r(256), up(256);
    r.set(60, true);
    up.assignShifted(r, 10);
    EXPECT_TRUE(up.get(70));
    EXPECT_EQ(up.popcount(), 1u);
    BitRow down(256);
    down.assignShifted(up, -10);
    EXPECT_TRUE(down.get(60));
    EXPECT_EQ(down.popcount(), 1u);
}

TEST(BitRow, ShiftByWholeRowIsEmpty)
{
    BitRow r(128), out(128);
    r.setRange(0, 128);
    out.setRange(0, 128);
    out.assignShifted(r, 128);
    EXPECT_EQ(out.popcount(), 0u);
    out.setRange(0, 128);
    out.assignShifted(r, -500);
    EXPECT_EQ(out.popcount(), 0u);
}

/** A row of @p bits random bits. */
BitRow
randomRow(Rng &rng, unsigned bits)
{
    BitRow r(bits);
    for (unsigned i = 0; i < bits; ++i)
        r.set(i, rng.next() & 1ULL);
    return r;
}

TEST(BitRow, AssignShiftedMatchesPerBitReference)
{
    Rng rng(31);
    for (unsigned bits : {1u, 63u, 64u, 100u, 256u}) {
        for (int iter = 0; iter < 40; ++iter) {
            const BitRow src = randomRow(rng, bits);
            const int span = static_cast<int>(bits) + 5;
            const int dist = int(rng.nextBounded(2 * span + 1)) - span;
            BitRow out = randomRow(rng, bits); // Every bit is overwritten.
            out.assignShifted(src, dist);
            for (unsigned i = 0; i < bits; ++i) {
                const long from = long(i) - dist;
                const bool inside = from >= 0 && from < long(bits);
                ASSERT_EQ(out.get(i), inside && src.get(unsigned(from)))
                    << "bits " << bits << " dist " << dist << " bit " << i;
            }
        }
    }
}

TEST(BitRow, FusedLogicMatchesPerBitReference)
{
    Rng rng(32);
    for (unsigned bits : {64u, 100u, 256u}) {
        const BitRow a = randomRow(rng, bits), b = randomRow(rng, bits);
        BitRow and_r = a, or_r = a, xor_r = a, nand_r(bits), both(bits);
        and_r.andInto(b);
        or_r.orInto(b);
        xor_r.xorInto(b);
        nand_r.notAndInto(a, b);
        both.assignAnd(a, b);
        for (unsigned i = 0; i < bits; ++i) {
            const bool x = a.get(i), y = b.get(i);
            ASSERT_EQ(and_r.get(i), x && y) << bits << " " << i;
            ASSERT_EQ(or_r.get(i), x || y) << bits << " " << i;
            ASSERT_EQ(xor_r.get(i), x != y) << bits << " " << i;
            ASSERT_EQ(nand_r.get(i), !x && y) << bits << " " << i;
            ASSERT_EQ(both.get(i), x && y) << bits << " " << i;
        }
        EXPECT_EQ(nand_r.popcount() + both.popcount(), b.popcount());
    }
}

TEST(BitRow, FullAdderAndSelectMatchPerBitReference)
{
    Rng rng(33);
    for (unsigned bits : {64u, 100u, 256u}) {
        const BitRow a = randomRow(rng, bits), b = randomRow(rng, bits);
        const BitRow c = randomRow(rng, bits);
        BitRow sum = a, carry = c, sel(bits);
        sum.fullAdderInto(b, carry);
        sel.assignSelect(a, b, c);
        for (unsigned i = 0; i < bits; ++i) {
            const int total = a.get(i) + b.get(i) + c.get(i);
            ASSERT_EQ(sum.get(i), (total & 1) != 0) << bits << " " << i;
            ASSERT_EQ(carry.get(i), total >= 2) << bits << " " << i;
            ASSERT_EQ(sel.get(i), c.get(i) ? a.get(i) : b.get(i))
                << bits << " " << i;
        }
    }
}

TEST(BitMatrix, ElementRoundTrip)
{
    BitMatrix m(256, 256);
    m.writeElement(5, 0, 32, 0xdeadbeefULL);
    EXPECT_EQ(m.readElement(5, 0, 32), 0xdeadbeefULL);
    // Neighbouring bitlines untouched.
    EXPECT_EQ(m.readElement(4, 0, 32), 0u);
    EXPECT_EQ(m.readElement(6, 0, 32), 0u);
}

TEST(BitMatrix, ElementsArePlacedLsbFirst)
{
    BitMatrix m(64, 8);
    m.writeElement(3, 10, 8, 0b10000001);
    EXPECT_TRUE(m.get(10, 3));   // LSB at the base wordline.
    EXPECT_TRUE(m.get(17, 3));   // MSB at base + 7.
    EXPECT_FALSE(m.get(11, 3));
}

TEST(BitMatrix, MaskedWriteOnlyTouchesMask)
{
    BitMatrix m(4, 64);
    BitRow ones(64);
    ones.setRange(0, 64);
    BitRow mask(64);
    mask.setRange(0, 32);
    m.writeMasked(0, ones, mask);
    EXPECT_EQ(m.row(0).popcount(), 32u);
    // Now clear via mask of upper half; lower half persists.
    BitRow zeros(64);
    BitRow hi(64);
    hi.setRange(32, 64);
    m.writeMasked(0, zeros, hi);
    EXPECT_EQ(m.row(0).popcount(), 32u);
}

TEST(BitMatrix, RandomElementRoundTrip)
{
    BitMatrix m(256, 256);
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        unsigned bl = static_cast<unsigned>(rng.nextBounded(256));
        unsigned wl = static_cast<unsigned>(rng.nextBounded(256 - 32));
        std::uint64_t v = rng.next() & 0xffffffffULL;
        m.writeElement(bl, wl, 32, v);
        EXPECT_EQ(m.readElement(bl, wl, 32), v);
    }
}

} // namespace
} // namespace infs

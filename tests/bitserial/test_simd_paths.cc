/**
 * @file
 * Differential certification of the SIMD dispatch layer (DESIGN.md §14):
 * every kernel table reachable on this host — Portable and, where cpuid
 * reports it, AVX2 — must be bit-identical to the portable table at
 * every level: raw row kernels, the 32x32 transpose, the 64-lane fp32
 * block ops, ComputeSram's blocked fp path (also checked against plain
 * host float arithmetic), every registry scenario's lowered job on the
 * fabric backend (checksum, time, traffic, energy and FabricStats
 * counts), and hand-built int32, compare and windowed fabric programs
 * (also checked against plain host arithmetic). The host never forces a
 * table; these tests do, through simd::setActive, the one seam for it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bitserial/compute_sram.hh"
#include "bitserial/simd.hh"
#include "core/backend.hh"
#include "core/executor.hh"
#include "sim/rng.hh"
#include "uarch/bit_exec.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

/** Every ISA whose table can execute on this host. Portable is listed
 * first so differential loops can treat it as the reference. */
std::vector<SimdIsa>
reachableIsas()
{
    std::vector<SimdIsa> out{SimdIsa::Portable};
    if (simd::available(SimdIsa::Avx2))
        out.push_back(SimdIsa::Avx2);
    return out;
}

/** Restores the process-global kernel table after each test so forcing
 * an ISA here cannot leak into later tests in the same binary. */
class SimdPathTest : public ::testing::Test
{
  protected:
    SimdPathTest() : saved_(simd::activeIsa()) {}
    ~SimdPathTest() override { simd::setActive(saved_); }

  private:
    SimdIsa saved_;
};

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng.next();
    return v;
}

/** The host's own pick is always installable, and the names the bench
 * provenance (`simd_isa`) prints are stable. */
TEST(SimdDispatch, DetectedTableAndNames)
{
    EXPECT_TRUE(simd::available(simd::detect()));
    EXPECT_EQ(simd::kernelsFor(simd::detect()).isa, simd::detect());
    EXPECT_STREQ(simdIsaName(SimdIsa::Portable), "portable");
    EXPECT_STREQ(simdIsaName(SimdIsa::Avx2), "avx2");
}

/** With no table forced, the active one is the host's own pick: the
 * fixture below restores whatever a test forced. */
TEST(SimdDispatch, UnforcedTableIsDetected)
{
    EXPECT_EQ(simd::activeIsa(), simd::detect());
}

/** A forced table survives building and running a system: no simulated
 * machine setting reaches the process-global table, and ExecStats
 * reports the table that actually ran. */
TEST_F(SimdPathTest, SystemKeepsForcedTable)
{
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        simd::setActive(isa);
        InfinitySystem sys(testSystemConfig());
        EXPECT_EQ(simd::activeIsa(), isa);
        Executor exec(sys, Paradigm::InfS);
        const ExecStats st = exec.run(findScenario("vec_add")->quick());
        EXPECT_EQ(st.simdIsa, isa);
        EXPECT_EQ(simd::activeIsa(), isa);
    }
}

TEST_F(SimdPathTest, RowKernelsMatchPortable)
{
    const simd::SimdKernels &ref = simd::kernelsFor(SimdIsa::Portable);
    // Odd word counts exercise every vector-tail path.
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                          std::size_t{33}}) {
        Rng rng(0x51D0 + n);
        const auto a = randomWords(rng, n);
        const auto b = randomWords(rng, n);
        const auto c = randomWords(rng, n);
        for (SimdIsa isa : reachableIsas()) {
            SCOPED_TRACE(std::string(simdIsaName(isa)) + " n=" +
                         std::to_string(n));
            const simd::SimdKernels &k = simd::kernelsFor(isa);

            auto sum_r = a, carry_r = c, sum_k = a, carry_k = c;
            ref.rowFullAdder(sum_r.data(), b.data(), carry_r.data(), n);
            k.rowFullAdder(sum_k.data(), b.data(), carry_k.data(), n);
            EXPECT_EQ(sum_k, sum_r);
            EXPECT_EQ(carry_k, carry_r);

            std::vector<std::uint64_t> sel_r(n), sel_k(n);
            ref.rowSelect(sel_r.data(), a.data(), b.data(), c.data(), n);
            k.rowSelect(sel_k.data(), a.data(), b.data(), c.data(), n);
            EXPECT_EQ(sel_k, sel_r);

            auto mrg_r = a, mrg_k = a;
            ref.rowMergeMasked(mrg_r.data(), b.data(), c.data(), n);
            k.rowMergeMasked(mrg_k.data(), b.data(), c.data(), n);
            EXPECT_EQ(mrg_k, mrg_r);

            std::vector<std::uint64_t> and_r(n), and_k(n);
            ref.rowAssignAnd(and_r.data(), a.data(), b.data(), n);
            k.rowAssignAnd(and_k.data(), a.data(), b.data(), n);
            EXPECT_EQ(and_k, and_r);

            std::vector<std::uint64_t> na_r(n), na_k(n);
            ref.rowNotAnd(na_r.data(), a.data(), b.data(), n);
            k.rowNotAnd(na_k.data(), a.data(), b.data(), n);
            EXPECT_EQ(na_k, na_r);

            auto acc_r = a, acc_k = a;
            ref.rowAnd(acc_r.data(), b.data(), n);
            k.rowAnd(acc_k.data(), b.data(), n);
            ref.rowOr(acc_r.data(), c.data(), n);
            k.rowOr(acc_k.data(), c.data(), n);
            ref.rowXor(acc_r.data(), b.data(), n);
            k.rowXor(acc_k.data(), b.data(), n);
            EXPECT_EQ(acc_k, acc_r);
        }
    }
}

TEST_F(SimdPathTest, Transpose32IsExactAndMatchesPortable)
{
    Rng rng(0x7245);
    std::uint32_t in[32], ref_out[32];
    for (auto &w : in)
        w = static_cast<std::uint32_t>(rng.next());
    simd::kernelsFor(SimdIsa::Portable).transpose32(in, ref_out);
    // Reference semantics: out[c] bit r == in[r] bit c, LSB first.
    for (unsigned r = 0; r < 32; ++r)
        for (unsigned c = 0; c < 32; ++c)
            ASSERT_EQ((ref_out[c] >> r) & 1u, (in[r] >> c) & 1u)
                << "r=" << r << " c=" << c;
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        std::uint32_t out[32], back[32];
        k.transpose32(in, out);
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(out[i], ref_out[i]) << "plane " << i;
        k.transpose32(out, back);
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(back[i], in[i]) << "round trip word " << i;
    }
}

TEST_F(SimdPathTest, LanesPlanesRoundTrip)
{
    Rng rng(0xB10C);
    std::uint32_t lanes[64];
    for (auto &l : lanes)
        l = static_cast<std::uint32_t>(rng.next());
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        std::uint64_t planes[32];
        std::uint32_t back[64];
        simd::lanesToPlanes(k, lanes, planes);
        simd::planesToLanes(k, planes, back);
        for (unsigned i = 0; i < 64; ++i)
            EXPECT_EQ(back[i], lanes[i]) << "lane " << i;
    }
}

/** fp32 bit patterns spanning the awkward corners: NaN payloads, signed
 * zeros, infinities, denormals — the lanes where vector min/max and
 * compare semantics classically diverge from scalar C. */
std::vector<std::uint32_t>
awkwardFloats(Rng &rng, unsigned n)
{
    std::vector<std::uint32_t> v{
        std::bit_cast<std::uint32_t>(0.0f),
        std::bit_cast<std::uint32_t>(-0.0f),
        std::bit_cast<std::uint32_t>(1.0f),
        std::bit_cast<std::uint32_t>(-2.5f),
        std::bit_cast<std::uint32_t>(
            std::numeric_limits<float>::infinity()),
        std::bit_cast<std::uint32_t>(
            -std::numeric_limits<float>::infinity()),
        std::bit_cast<std::uint32_t>(
            std::numeric_limits<float>::quiet_NaN()),
        0x7f800001u, // Signaling-NaN pattern.
        0x00000001u, // Smallest denormal.
        0x807fffffu, // Largest negative denormal.
    };
    while (v.size() < n)
        v.push_back(static_cast<std::uint32_t>(rng.next()));
    return v;
}

TEST_F(SimdPathTest, FpLanesAndLtMaskMatchPortable)
{
    Rng rng(0xF9);
    const auto a = awkwardFloats(rng, 64);
    const auto b = awkwardFloats(rng, 64);
    const simd::SimdKernels &ref = simd::kernelsFor(SimdIsa::Portable);
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const simd::SimdKernels &k = simd::kernelsFor(isa);
        for (simd::FpOp op :
             {simd::FpOp::Add, simd::FpOp::Sub, simd::FpOp::Mul,
              simd::FpOp::Div, simd::FpOp::Max, simd::FpOp::Min}) {
            std::uint32_t r_ref[64], r_k[64];
            ref.fpLanes(op, a.data(), b.data(), r_ref, 64);
            k.fpLanes(op, a.data(), b.data(), r_k, 64);
            for (unsigned i = 0; i < 64; ++i)
                EXPECT_EQ(r_k[i], r_ref[i])
                    << "op " << static_cast<int>(op) << " lane " << i;
        }
        // Partial lane counts exercise the tail masking.
        for (unsigned n : {1u, 17u, 64u})
            EXPECT_EQ(k.fpLtMask(a.data(), b.data(), n),
                      ref.fpLtMask(a.data(), b.data(), n))
                << "n=" << n;
    }
}

void
expectStatsEqual(const SramOpStats &got, const SramOpStats &want)
{
    EXPECT_EQ(got.rowReads, want.rowReads);
    EXPECT_EQ(got.rowWrites, want.rowWrites);
    EXPECT_EQ(got.htreeRowMoves, want.htreeRowMoves);
    EXPECT_EQ(got.opCount, want.opCount);
}

/** Plain host float arithmetic on raw fp32 bit patterns: the scalar
 * reference the bit-plane fp path must reproduce bit for bit. */
std::uint32_t
hostFp(BitOp op, std::uint32_t a_bits, std::uint32_t b_bits)
{
    const float a = std::bit_cast<float>(a_bits);
    const float b = std::bit_cast<float>(b_bits);
    float r = 0.0f;
    switch (op) {
      case BitOp::Add: r = a + b; break;
      case BitOp::Sub: r = a - b; break;
      case BitOp::Mul: r = a * b; break;
      case BitOp::Div: r = a / b; break;
      case BitOp::Max: r = a > b ? a : b; break;
      case BitOp::Min: r = a < b ? a : b; break;
      default: ADD_FAILURE() << "no host reference for " << bitOpName(op);
    }
    return std::bit_cast<std::uint32_t>(r);
}

/**
 * ComputeSram fp32 compute under every ISA, under a full and a partial
 * mask: every masked lane must equal plain host float arithmetic on the
 * same operands bit for bit, every unmasked lane must keep its prior
 * value, and CmpLt must equal a host `<`. Result bits, cycle costs and
 * SramOpStats must also be identical to the portable run.
 */
TEST_F(SimdPathTest, ComputeSramFp32PathsAreBitIdentical)
{
    struct Run {
        std::vector<std::uint64_t> bits;
        std::vector<Tick> costs;
        SramOpStats stats;
    };
    Rng rng(0x5FA3);
    const auto a = awkwardFloats(rng, 100);
    const auto b = awkwardFloats(rng, 100);
    constexpr std::uint32_t kSentinel = 0xDEADBEEFu;

    auto run_with = [&](SimdIsa isa) {
        SCOPED_TRACE(simdIsaName(isa));
        simd::setActive(isa);
        ComputeSram sram(256, 128);
        const BitRow full = sram.fullMask();
        // A partial mask too: the blocked path computes whole 64-lane
        // blocks and must leave the unmasked lanes untouched.
        BitRow half = full;
        for (unsigned i = 0; i < sram.bitlines(); i += 2)
            half.set(i, false);
        const BitRow *const masks[] = {&full, &half};
        const auto lane_a = [&](unsigned i) { return a[i % a.size()]; };
        const auto lane_b = [&](unsigned i) { return b[i % b.size()]; };
        for (unsigned i = 0; i < sram.bitlines(); ++i) {
            sram.writeElement(i, 0, DType::Fp32, lane_a(i));
            sram.writeElement(i, 32, DType::Fp32, lane_b(i));
        }
        Run r;
        for (BitOp op : {BitOp::Add, BitOp::Sub, BitOp::Mul, BitOp::Div,
                         BitOp::Max, BitOp::Min}) {
            for (const BitRow *mask : masks) {
                for (unsigned i = 0; i < sram.bitlines(); ++i)
                    sram.writeElement(i, 64, DType::Fp32, kSentinel);
                r.costs.push_back(
                    sram.execBinary(op, DType::Fp32, 0, 32, 64, *mask));
                for (unsigned i = 0; i < sram.bitlines(); ++i) {
                    const std::uint64_t got =
                        sram.readElement(i, 64, DType::Fp32);
                    const std::uint64_t want =
                        mask->get(i) ? hostFp(op, lane_a(i), lane_b(i))
                                     : kSentinel;
                    EXPECT_EQ(got, want)
                        << bitOpName(op) << " lane " << i;
                    r.bits.push_back(got);
                }
            }
        }
        for (const BitRow *mask : masks) {
            for (unsigned i = 0; i < sram.bitlines(); ++i)
                sram.bits().set(96, i, true);
            r.costs.push_back(
                sram.execBinary(BitOp::CmpLt, DType::Fp32, 0, 32, 96, *mask));
            for (unsigned i = 0; i < sram.bitlines(); ++i) {
                const bool got = sram.bits().get(96, i);
                const bool want =
                    !mask->get(i) || std::bit_cast<float>(lane_a(i)) <
                                         std::bit_cast<float>(lane_b(i));
                EXPECT_EQ(got, want) << "CmpLt lane " << i;
                r.bits.push_back(got);
            }
        }
        r.stats = sram.stats();
        return r;
    };

    const Run ref = run_with(SimdIsa::Portable);
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        Run got = run_with(isa);
        EXPECT_EQ(got.bits, ref.bits);
        EXPECT_EQ(got.costs, ref.costs);
        expectStatsEqual(got.stats, ref.stats);
    }
}

/** Every FabricStats count (all but the per-kind wall times). */
void
expectFabricCountsEqual(const FabricStats &got, const FabricStats &want)
{
    for (std::size_t k = 0; k < want.byKind.size(); ++k)
        EXPECT_EQ(got.byKind[k].count, want.byKind[k].count) << "kind " << k;
    EXPECT_EQ(got.maskCacheHits, want.maskCacheHits);
    EXPECT_EQ(got.maskCacheMisses, want.maskCacheMisses);
    EXPECT_EQ(got.scratchAllocs, want.scratchAllocs);
    EXPECT_EQ(got.bankOps, want.bankOps);
}

/**
 * Whole-job differential: every registry scenario's lowered job (the
 * job the bench's per-scenario pass runs) on the fabric backend under
 * every reachable ISA must reproduce the portable run's checksum byte
 * for byte, and its time, traffic, energy and FabricStats counts exactly
 * (no simulated quantity depends on the host ISA).
 */
TEST_F(SimdPathTest, FabricJobChecksumsIsaInvariant)
{
    SystemConfig cfg = testSystemConfig();
    unsigned jobs = 0;
    for (const BenchScenario &sc : benchRegistry()) {
        SCOPED_TRACE(sc.name);
        auto job = planPrimaryJob(sc.quick(), cfg, kJobVolumeCap);
        if (!job)
            continue;
        ++jobs;
        simd::setActive(SimdIsa::Portable);
        const BackendResult ref =
            makeBackend(ExecBackendKind::Fabric, cfg)->runJob(*job);
        for (SimdIsa isa : reachableIsas()) {
            SCOPED_TRACE(simdIsaName(isa));
            simd::setActive(isa);
            const BackendResult got =
                makeBackend(ExecBackendKind::Fabric, cfg)->runJob(*job);
            EXPECT_EQ(got.checksum, ref.checksum);
            EXPECT_EQ(got.simCycles, ref.simCycles);
            EXPECT_EQ(got.nocHopBytes, ref.nocHopBytes);
            EXPECT_EQ(got.energyJoules, ref.energyJoules);
            expectFabricCountsEqual(got.fabric, ref.fabric);
        }
    }
    // The bench's per-scenario job pass lowers 9 of the 17 quick
    // scenarios (BENCH_QUICK.json rows with a non-zero `commands`).
    EXPECT_EQ(jobs, 9u);
}

/** Plain host int32 arithmetic (wrapping, signed compares): the scalar
 * reference for the fabric's bit-serial integer ops. */
std::uint32_t
hostInt(BitOp op, std::uint32_t a, std::uint32_t b)
{
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case BitOp::Add: return a + b;
      case BitOp::Sub: return a - b;
      case BitOp::Mul: return a * b;
      case BitOp::Max: return sa > sb ? a : b;
      case BitOp::Min: return sa < sb ? a : b;
      case BitOp::AndB: return a & b;
      case BitOp::OrB: return a | b;
      case BitOp::XorB: return a ^ b;
      default: ADD_FAILURE() << "no host reference for " << bitOpName(op);
    }
    return 0;
}

/**
 * Hand-built BitAccurateFabric programs under every reachable table:
 * int32 Add/Sub/Mul, Max/Min and AndB/OrB/XorB, fp32 CmpLt, and int32
 * and fp32 ops under a partial positional window into a pre-filled
 * slot. The registry jobs above are fp32 with full masks, so this is the
 * whole-program test of the full-adder, compare, select and masked-merge
 * row kernels and of fpLtMask. Full-mask results must equal plain host
 * arithmetic; every destination slot's bits after every command, the
 * FabricStats counts and every tile's SramOpStats (the row reads and
 * writes the energy model charges) must equal the portable run's.
 */
TEST_F(SimdPathTest, FabricIntAndMaskedProgramsMatchPortable)
{
    const Coord n = 1024;
    const Coord tile = 256; // 4 tiles of 4 words: every vector loop runs.
    const TiledLayout layout({n}, {tile});
    // Slots: int32 A, B at 0/32, fp32 X, Y at 64/96, the pre-filled
    // windowed destination at 128 and the full-mask destination at 160.
    constexpr unsigned kA = 0, kB = 32, kX = 64, kY = 96, kWin = 128,
                       kDst = 160;
    Rng rng(0x1A7E);
    std::vector<float> a(n), b(n), fill(n);
    for (Coord i = 0; i < n; ++i) {
        a[i] = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
        // Every 7th lane ties, so Max/Min see equal operands.
        b[i] = i % 7 == 0 ? a[i]
                          : std::bit_cast<float>(
                                static_cast<std::uint32_t>(rng.next()));
        fill[i] =
            std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
    }
    std::vector<float> x(n), y(n);
    {
        const auto xb = awkwardFloats(rng, n);
        const auto yb = awkwardFloats(rng, n);
        for (Coord i = 0; i < n; ++i) {
            x[i] = std::bit_cast<float>(xb[i]);
            y[i] = std::bit_cast<float>(yb[i]);
        }
    }

    auto compute = [](BitOp op, DType t, unsigned wl_a, unsigned wl_b,
                      unsigned wl_dst, HyperRect rect, Coord lo = 0,
                      Coord hi = 0) {
        InMemCommand c;
        c.kind = CmdKind::Compute;
        c.tensor = std::move(rect);
        c.op = op;
        c.dtype = t;
        c.wlA = wl_a;
        c.wlB = wl_b;
        c.wlDst = wl_dst;
        c.maskLo = lo;
        c.maskHi = hi;
        return c;
    };
    const HyperRect all = HyperRect::interval(0, n);
    const HyperRect part = HyperRect::interval(37, n - 101);
    const BitOp int_ops[] = {BitOp::Add,  BitOp::Sub, BitOp::Mul,
                             BitOp::Max,  BitOp::Min, BitOp::AndB,
                             BitOp::OrB,  BitOp::XorB};
    std::vector<InMemCommand> prog;
    for (BitOp op : int_ops)
        prog.push_back(compute(op, DType::Int32, kA, kB, kDst, all));
    prog.push_back(compute(BitOp::CmpLt, DType::Fp32, kX, kY, kDst, all));
    // Windows: only tile positions [lo, hi) of the partial tensor change;
    // every other bit of the slot must keep its pre-filled value.
    for (BitOp op : {BitOp::Add, BitOp::Sub, BitOp::Max, BitOp::XorB})
        prog.push_back(
            compute(op, DType::Int32, kA, kB, kWin, part, 5, 200));
    prog.push_back(
        compute(BitOp::CmpLt, DType::Fp32, kX, kY, kWin, part, 70, 250));

    struct Run {
        std::vector<std::uint32_t> bits; ///< Dst slot after each command.
        FabricStats stats;
        std::vector<SramOpStats> sram;
    };
    auto run_with = [&](SimdIsa isa) {
        SCOPED_TRACE(simdIsaName(isa));
        simd::setActive(isa);
        BitAccurateFabric fab(layout);
        fab.loadArray(a, kA);
        fab.loadArray(b, kB);
        fab.loadArray(x, kX);
        fab.loadArray(y, kY);
        fab.loadArray(fill, kWin);
        fab.loadArray(fill, kDst);
        // Host model of both destination slots: a lane outside the
        // command's window keeps its bits, CmpLt writes only bit 0.
        std::vector<std::uint32_t> model_win(n), model_dst(n);
        for (Coord i = 0; i < n; ++i)
            model_win[i] = model_dst[i] =
                std::bit_cast<std::uint32_t>(fill[i]);
        Run r;
        std::vector<float> out(n);
        for (std::size_t ci = 0; ci < prog.size(); ++ci) {
            const InMemCommand &c = prog[ci];
            fab.executeCommand(c);
            fab.storeArray(out, c.wlDst);
            auto &model = c.wlDst == kWin ? model_win : model_dst;
            for (Coord i = 0; i < n; ++i) {
                const Coord pos = i % tile;
                const bool selected =
                    i >= c.tensor.lo(0) && i < c.tensor.hi(0) &&
                    (c.maskHi == 0 || (pos >= c.maskLo && pos < c.maskHi));
                if (selected && c.op == BitOp::CmpLt)
                    model[i] = (model[i] & ~1u) | (x[i] < y[i] ? 1u : 0u);
                else if (selected)
                    model[i] =
                        hostInt(c.op, std::bit_cast<std::uint32_t>(a[i]),
                                std::bit_cast<std::uint32_t>(b[i]));
                const auto got = std::bit_cast<std::uint32_t>(out[i]);
                EXPECT_EQ(got, model[i])
                    << bitOpName(c.op) << " command " << ci << " lane " << i;
                r.bits.push_back(got);
            }
        }
        r.stats = fab.stats();
        for (std::int64_t t = 0; t < n / tile; ++t)
            r.sram.push_back(fab.tile(t).stats());
        return r;
    };

    const Run ref = run_with(SimdIsa::Portable);
    for (SimdIsa isa : reachableIsas()) {
        SCOPED_TRACE(simdIsaName(isa));
        const Run got = run_with(isa);
        EXPECT_EQ(got.bits, ref.bits);
        expectFabricCountsEqual(got.stats, ref.stats);
        ASSERT_EQ(got.sram.size(), ref.sram.size());
        for (std::size_t t = 0; t < ref.sram.size(); ++t) {
            SCOPED_TRACE("tile " + std::to_string(t));
            expectStatsEqual(got.sram[t], ref.sram[t]);
        }
    }
}

} // namespace
} // namespace infs

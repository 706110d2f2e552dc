#include <gtest/gtest.h>

#include "sim/config.hh"

namespace infs {
namespace {

TEST(SystemConfig, Table2Defaults)
{
    SystemConfig cfg = defaultSystemConfig();
    EXPECT_EQ(cfg.numCores(), 64u);
    EXPECT_EQ(cfg.l3.numBanks, 64u);
    EXPECT_EQ(cfg.l3.arrayBytes(), 8u * 1024u);
    // 64 banks x 18 ways x 16 arrays x 8kB = 144 MB (Table 2).
    EXPECT_EQ(cfg.l3.totalBytes(), 144ull << 20);
    // 16 compute ways => 128 MB reservable (paper's "128MB L3" claim).
    EXPECT_EQ(cfg.l3.computeBytes(), 128ull << 20);
    // 4M bitlines ("In total, it has 4M bitlines").
    EXPECT_EQ(cfg.l3.totalBitlines(), 4ull << 20);
    // Eq. 1 baseline: 64 cores x 16 fp32 lanes = 1024 ops/cycle.
    EXPECT_DOUBLE_EQ(cfg.basePeakOpsPerCycle(), 1024.0);
}

TEST(SystemConfig, Equation1PeakThroughput)
{
    SystemConfig cfg = defaultSystemConfig();
    // T = Nbank x Nway x Narray/way x Nbitline / Latency (int32 add = 32).
    double peak = double(cfg.l3.totalBitlines()) / 32.0;
    EXPECT_DOUBLE_EQ(peak, 131072.0);
    EXPECT_DOUBLE_EQ(peak / cfg.basePeakOpsPerCycle(), 128.0);
}

TEST(SystemConfig, DramBandwidthConversion)
{
    SystemConfig cfg = defaultSystemConfig();
    // 25.6 GB/s at 2 GHz = 12.8 bytes per core cycle.
    EXPECT_DOUBLE_EQ(cfg.dram.bytesPerCycle(cfg.core.ghz), 12.8);
}

TEST(SystemConfig, TestConfigKeepsShape)
{
    SystemConfig cfg = testSystemConfig();
    EXPECT_EQ(cfg.numCores(), cfg.l3.numBanks);
    EXPECT_EQ(cfg.l3.wordlines, 256u);
    EXPECT_EQ(cfg.l3.bitlines, 256u);
    EXPECT_LT(cfg.l3.totalBytes(), defaultSystemConfig().l3.totalBytes());
}

TEST(SystemConfig, BackendNamesRoundTrip)
{
    for (ExecBackendKind k :
         {ExecBackendKind::Fabric, ExecBackendKind::Functional,
          ExecBackendKind::Timing}) {
        ExecBackendKind parsed;
        ASSERT_TRUE(parseBackendName(backendName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    EXPECT_STREQ(backendName(ExecBackendKind::Fabric), "fabric");
    EXPECT_STREQ(backendName(ExecBackendKind::Functional), "functional");
    EXPECT_STREQ(backendName(ExecBackendKind::Timing), "timing");
}

TEST(SystemConfig, UnknownBackendNameRejected)
{
    ExecBackendKind parsed = ExecBackendKind::Timing;
    EXPECT_FALSE(parseBackendName("cycle_exact", parsed));
    EXPECT_FALSE(parseBackendName("", parsed));
    // A failed parse leaves the out-parameter untouched.
    EXPECT_EQ(parsed, ExecBackendKind::Timing);
}

TEST(SystemConfig, SimdIsaNamesRoundTrip)
{
    for (SimdIsa isa : {SimdIsa::Auto, SimdIsa::Portable, SimdIsa::Avx2,
                        SimdIsa::Neon}) {
        SimdIsa parsed = SimdIsa::Auto;
        ASSERT_TRUE(parseSimdIsaName(simdIsaName(isa), parsed));
        EXPECT_EQ(parsed, isa);
    }
}

TEST(SystemConfig, OffSimdIsaNameRejected)
{
    // "off" named a per-element fp path that no longer exists.
    SimdIsa parsed = SimdIsa::Neon;
    EXPECT_FALSE(parseSimdIsaName("off", parsed));
    EXPECT_FALSE(parseSimdIsaName("", parsed));
    // A failed parse leaves the out-parameter untouched.
    EXPECT_EQ(parsed, SimdIsa::Neon);
}

TEST(SystemConfig, DefaultBackendIsFabric)
{
    EXPECT_EQ(testSystemConfig().backend, ExecBackendKind::Fabric);
    EXPECT_EQ(defaultSystemConfig().backend, ExecBackendKind::Fabric);
}

TEST(SystemConfig, SummaryMentionsKeyNumbers)
{
    auto s = defaultSystemConfig().summary();
    EXPECT_NE(s.find("64 cores"), std::string::npos);
    EXPECT_NE(s.find("144MB"), std::string::npos);
    EXPECT_NE(s.find("25.6GB/s"), std::string::npos);
}

} // namespace
} // namespace infs

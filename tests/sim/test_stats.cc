#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace infs {
namespace {

TEST(Counter, AccumulatesAndResets)
{
    Counter c("x");
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    c += 2.5;
    ++c;
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(StatRegistry, SumByPrefix)
{
    Counter a("noc.hops.data"), b("noc.hops.control"), c("dram.bytes");
    a += 10;
    b += 5;
    c += 100;
    StatRegistry reg;
    reg.add(a);
    reg.add(b);
    reg.add(c);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("noc.hops."), 15.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("noc."), 15.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("dram."), 100.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("nope."), 0.0);
}

TEST(StatRegistry, LookupAndReset)
{
    Counter a("a");
    a += 7;
    StatRegistry reg;
    reg.add(a);
    EXPECT_TRUE(reg.hasCounter("a"));
    EXPECT_FALSE(reg.hasCounter("b"));
    EXPECT_DOUBLE_EQ(reg.counter("a").value(), 7.0);
    a.reset();
    EXPECT_DOUBLE_EQ(reg.counter("a").value(), 0.0);
}

TEST(StatRegistry, SumByPrefixMatchesWholePrefixOnly)
{
    // The sum walks the sorted map from the prefix and stops at the
    // first name that does not start with it.
    Counter ab("a.b"), abc("a.b.c"), abx("a.bx"), ac("a.c"), b("b");
    ab += 1;
    abc += 2;
    abx += 4;
    ac += 8;
    b += 16;
    StatRegistry reg;
    for (Counter *c : {&b, &ac, &abx, &abc, &ab})
        reg.add(*c);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("a.b."), 2.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("a.b"), 7.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("a."), 15.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix(""), 31.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("a.bb"), 0.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("c"), 0.0);
}

TEST(StatRegistry, ReadsRegisteredCountersLive)
{
    // The registry holds references: updates after registration show
    // through both lookups without re-registering.
    Counter hits("cache.hits"), misses("cache.misses");
    StatRegistry reg;
    reg.add(hits);
    reg.add(misses);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("cache."), 0.0);
    ++hits;
    misses += 3;
    EXPECT_DOUBLE_EQ(reg.counter("cache.hits").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("cache."), 4.0);
    EXPECT_EQ(&reg.counter("cache.misses"), &misses);
}

TEST(StatRegistry, ReRegisteringANameReplacesTheCounter)
{
    Counter first("fault.retries"), second("fault.retries");
    first += 5;
    second += 2;
    StatRegistry reg;
    reg.add(first);
    reg.add(second);
    EXPECT_EQ(&reg.counter("fault.retries"), &second);
    EXPECT_DOUBLE_EQ(reg.sumByPrefix("fault."), 2.0);
}

TEST(StatRegistryDeathTest, UnknownCounterPanics)
{
    StatRegistry reg;
    EXPECT_DEATH((void)reg.counter("missing"), "unknown counter 'missing'");
}

TEST(StatRegistryDeathTest, UnnamedCounterPanics)
{
    Counter anonymous;
    StatRegistry reg;
    EXPECT_DEATH(reg.add(anonymous), "counter must be named");
}

} // namespace
} // namespace infs

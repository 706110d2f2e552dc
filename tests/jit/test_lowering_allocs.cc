/**
 * @file
 * Allocation guard for the JIT's hot path: gauss_elim(2048) lowers 2047
 * shrinking regions cold (the §8 JIT-overhead outlier), so per-command
 * heap copies in the lowering show up directly as host time. This
 * executable replaces the global operator new to count allocations made
 * while one region lowers, and bounds the count.
 *
 * Its own executable: the counting operator new would otherwise apply to
 * every test linked beside it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/plan.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "workloads/workloads.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<unsigned long> allocations{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable non-aligned form, so that no allocation made by the
// library's own operator new reaches this std::free.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return operator new(n, std::nothrow);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace infs {
namespace {

/**
 * Heap allocations of one cold gauss_elim(2048) lowering, command
 * optimizer on, on the Table 2 machine. The first (largest) region's
 * 18 commands take 26; with a heap bank list per command they took 156.
 * The bound, about twice the measured count, keeps per-command heap
 * copies from creeping back in.
 */
TEST(LoweringAllocs, GaussRegionStaysUnderBound)
{
    constexpr unsigned long kBound = 53;
    const SystemConfig cfg = defaultSystemConfig();
    ASSERT_TRUE(cfg.cmdOpt);
    const AddressMap map(cfg.l3, cfg.noc.memCtrls);
    const Workload w = makeGaussElim(2048);
    const RegionPlan plan = planRegion(w, cfg, true);
    ASSERT_TRUE(plan.layout.has_value());
    const TdfgGraph g = w.phases[0].buildTdfg(0);
    JitCompiler jit(cfg);

    allocations = 0;
    counting = true;
    auto prog = jit.tryLower(g, *plan.layout, map);
    counting = false;

    ASSERT_TRUE(prog.ok());
    std::printf("gauss_elim(2048) k=0: %lu allocations for %zu commands\n",
                allocations.load(), (*prog)->commands.size());
    EXPECT_LE(allocations.load(), kBound);
}

} // namespace
} // namespace infs

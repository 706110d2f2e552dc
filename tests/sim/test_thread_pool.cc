/**
 * @file
 * Host thread pool unit tests: inline (size-1) semantics, every task of
 * a batch running exactly once, nesting two levels deep without deadlock,
 * workers running tasks off the calling thread, many small batches under
 * stress, a throwing task, and a pool destroyed before any worker
 * started.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/thread_pool.hh"

namespace infs {
namespace {

using Tasks = std::vector<std::function<void()>>;

/** One task per slot of @p hits, task i adding 1 to hits[i]. */
Tasks
countingTasks(std::vector<std::atomic<int>> &hits)
{
    Tasks tasks;
    for (std::atomic<int> &h : hits)
        tasks.push_back([&h] { h.fetch_add(1); });
    return tasks;
}

TEST(ThreadPool, SizeOneIsInline)
{
    ThreadPool pool(1);
    EXPECT_TRUE(pool.inlineOnly());
    EXPECT_EQ(pool.threads(), 1u);
    EXPECT_EQ(pool.numaNodes(), 1u);

    // Everything runs on the calling thread, in order.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    Tasks tasks;
    for (int i = 0; i < 8; ++i)
        tasks.push_back([&order, caller, i] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
    pool.runTasks(std::move(tasks));
    std::vector<int> want(8);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(ThreadPool, ZeroResolvesToHardware)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threads(), 1u);
}

TEST(ThreadPool, EmptyAndSingleTaskBatchesRunInline)
{
    ThreadPool pool(4);
    EXPECT_FALSE(pool.inlineOnly());
    pool.runTasks({});
    std::thread::id ran_on;
    pool.runTasks({[&ran_on] { ran_on = std::this_thread::get_id(); }});
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.runTasks(countingTasks(hits));
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, PerIndexSlotsAreIdenticalAcrossPoolSizes)
{
    // The pattern every caller follows: each task writes only its own
    // slot and the calling thread folds the slots in index order.
    auto run = [](unsigned threads) {
        ThreadPool pool(threads);
        std::vector<double> slot(512);
        Tasks tasks;
        for (std::size_t i = 0; i < slot.size(); ++i)
            tasks.push_back([&slot, i] {
                slot[i] = static_cast<double>(i) * 1.25 + 3.0;
            });
        pool.runTasks(std::move(tasks));
        double acc = 0.0;
        for (double v : slot)
            acc += v;
        return acc;
    };
    const double seq = run(1);
    EXPECT_EQ(seq, run(2));
    EXPECT_EQ(seq, run(8));
}

TEST(ThreadPool, NestedBatchesTwoLevelsDeepDoNotDeadlock)
{
    // Executor pre-lowering -> fat-binary candidates -> a further batch:
    // the deepest nesting the simulator reaches. More outer tasks than
    // threads makes every thread block in an inner batch at some point.
    ThreadPool pool(3);
    const int outer = 8, middle = 3, inner = 4;
    std::vector<std::atomic<int>> hits(outer * middle * inner);
    Tasks outer_tasks;
    for (int o = 0; o < outer; ++o)
        outer_tasks.push_back([&, o] {
            Tasks middle_tasks;
            for (int m = 0; m < middle; ++m)
                middle_tasks.push_back([&, o, m] {
                    Tasks inner_tasks;
                    for (int i = 0; i < inner; ++i)
                        inner_tasks.push_back([&, o, m, i] {
                            hits[(o * middle + m) * inner + i].fetch_add(1);
                        });
                    pool.runTasks(std::move(inner_tasks));
                });
            pool.runTasks(std::move(middle_tasks));
        });
    pool.runTasks(std::move(outer_tasks));
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, WorkersRunTasksOffTheCallingThread)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_caller{0};
    // The caller may drain a batch before a worker wakes, so retry a few
    // batches of spinning tasks: the chance that no worker ever takes one
    // is negligible, which keeps the assertion meaningful without being
    // timing-flaky.
    for (int round = 0; round < 10 && off_caller.load() == 0; ++round) {
        Tasks tasks;
        for (int i = 0; i < 64; ++i)
            tasks.push_back([&off_caller, caller] {
                volatile double x = 1.0;
                for (int k = 0; k < 80'000; ++k)
                    x = x * 1.000001 + 0.5;
                if (std::this_thread::get_id() != caller)
                    off_caller.fetch_add(1);
            });
        pool.runTasks(std::move(tasks));
    }
    EXPECT_GT(off_caller.load(), 0);
}

TEST(ThreadPool, ManySmallBatchesStress)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> sum{0};
    for (int round = 0; round < 500; ++round) {
        Tasks tasks;
        for (int i = 0; i < 2 + round % 14; ++i)
            tasks.push_back([&sum, i] { sum.fetch_add(i); });
        pool.runTasks(std::move(tasks));
    }
    std::int64_t want = 0;
    for (int round = 0; round < 500; ++round) {
        const int n = 2 + round % 14;
        want += n * (n - 1) / 2;
    }
    EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPool, TaskExceptionReachesTheCaller)
{
    // A throwing task must not leave its batch half-run or escape on a
    // worker: the batch completes and the caller sees the exception.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    Tasks tasks = countingTasks(hits);
    tasks[17] = [] { throw std::runtime_error("task 17"); };
    EXPECT_THROW(pool.runTasks(std::move(tasks)), std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), i == 17 ? 0 : 1) << i;
    // The pool stays usable.
    std::vector<std::atomic<int>> again(8);
    pool.runTasks(countingTasks(again));
    for (std::atomic<int> &h : again)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DestroyedBeforeWorkersStart)
{
    // Workers start lazily on the first multi-task batch; a pool that
    // never saw one must construct and destroy without joining anything.
    {
        ThreadPool pool(8);
        pool.runTasks({[] {}});
    }
    ThreadPool pool(8);
    EXPECT_EQ(pool.threads(), 8u);
}

} // namespace
} // namespace infs

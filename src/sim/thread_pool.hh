/**
 * @file
 * Work-stealing host thread pool: the simulator's counterpart of the
 * modeled hardware's bank parallelism (DESIGN.md §10). Commands between
 * Sync barriers touch disjoint banks, per-tile SRAM state is independent,
 * and independent regions lower to independent programs — so the
 * simulator farms that work out to host threads the same way Inf-S farms
 * bit-serial compute out to 64 L3 banks. A task must outweigh the worker
 * wake-up it costs: one lowering is a task, one subtensor of it is not.
 *
 * Design rules that keep simulation results bit-exact across pool sizes:
 *  - work is *split* deterministically (by index, never by thread id);
 *  - workers only ever compute into pre-allocated, per-index slots;
 *  - merging happens on the calling thread in index order.
 * The pool therefore never owns simulation state; it only runs closures.
 *
 * A pool of size 1 executes everything inline on the calling thread with
 * no worker threads, no locks taken on the hot path, and no allocation —
 * exact legacy behavior.
 */

#ifndef INFS_SIM_THREAD_POOL_HH
#define INFS_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace infs {

/**
 * The pool. Worker threads are spawned lazily on the first parallel call
 * so that a `hostThreads = 1` system (or a pool that is never exercised)
 * costs nothing. Parallel calls may nest: a task that itself calls
 * parallelFor() publishes the inner work to the same pool, and any thread
 * waiting for a task group *helps* by stealing pending tasks instead of
 * blocking — so nesting can never deadlock.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total parallelism including the calling thread.
     * 0 means `std::thread::hardware_concurrency()`; 1 means inline
     * execution (no workers).
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (calling thread + workers). */
    unsigned threads() const { return threads_; }

    /** True when the pool executes everything inline (size 1). */
    bool inlineOnly() const { return threads_ <= 1; }

    /** Always 1: the pool never pins workers. Kept only because
     * perfbench/src/driver.cc reports it. */
    unsigned numaNodes() const { return 1; }

    /**
     * Run @p fn(i) for every i in [0, n). Blocks until all iterations
     * completed; the calling thread participates. Iterations are grouped
     * into contiguous chunks of at least @p grain indices; chunking is a
     * pure function of (n, grain, threads), never of scheduling, so any
     * per-chunk state a caller shards is reproducible.
     *
     * @p fn must be safe to call concurrently for distinct i.
     */
    void parallelFor(std::int64_t n,
                     const std::function<void(std::int64_t)> &fn,
                     std::int64_t grain = 1);

    /**
     * Run every task in @p tasks to completion (unordered, concurrent).
     * Blocks; the calling thread participates.
     */
    void runTasks(std::vector<std::function<void()>> tasks);

    /** Number of pending (not yet started) tasks — test introspection. */
    std::size_t pendingTasks() const;

    /** Total tasks executed by worker threads (not the caller) — test
     * introspection for the stealing path. */
    std::uint64_t stolenTasks() const { return stolen_.load(); }

  private:
    struct TaskGroup;

    struct Task {
        std::function<void()> fn;
        TaskGroup *group = nullptr;
    };

    /** Per-worker deque; workers pop LIFO locally and steal FIFO. */
    struct WorkerQueue {
        mutable std::mutex mu;
        std::deque<Task> dq;
    };

    void startWorkers();
    void workerLoop(unsigned self);
    /** Pop from own queue (back) or steal from a victim (front). */
    bool tryTake(unsigned self, Task &out);
    void runTask(Task &&t);
    /** Help execute pending tasks until @p group completes. */
    void helpUntilDone(TaskGroup &group);
    void submit(std::vector<Task> &&tasks);

    unsigned threads_ = 1;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> stolen_{0};

    std::mutex startMu_;
    std::vector<std::thread> workers_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    /** Overflow/injection queue for submissions from non-worker threads. */
    WorkerQueue inject_;

    std::mutex sleepMu_;
    std::condition_variable sleepCv_;
};

} // namespace infs

#endif // INFS_SIM_THREAD_POOL_HH

/**
 * @file
 * Host thread pool: one FIFO task queue, one mutex and one condition
 * variable. Nothing in the simulator runs on it (DESIGN.md §10): a
 * lowering takes a few microseconds, less than the wake-up a task costs,
 * so the executor and the JIT lower on the calling thread. Its only
 * users are perfbench's traced replica of the executor, which keeps its
 * own fan-out of whole lowerings, and the tests (the ThreadPool cases,
 * and the JitThreads cases that call tryLower concurrently). It goes
 * with the replica (ROADMAP item 8).
 *
 * Design rules that keep simulation results bit-exact across pool sizes:
 *  - work is *split* deterministically (by index, never by thread id);
 *  - tasks only ever compute into pre-allocated, per-index slots;
 *  - merging happens on the calling thread in index order.
 * The pool therefore never owns simulation state; it only runs closures.
 *
 * A pool of size 1 executes everything inline on the calling thread with
 * no worker threads and no locks — exact legacy behavior.
 */

#ifndef INFS_SIM_THREAD_POOL_HH
#define INFS_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace infs {

/**
 * The pool. Worker threads start lazily on the first batch of more than
 * one task, so a `hostThreads = 1` system (or a pool that is never
 * exercised) costs nothing. Batches may nest: a task that itself calls
 * runTasks() queues the inner batch on the same queue, and every thread
 * waiting for a batch *helps* by running pending tasks instead of
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
     * Run every task in @p tasks to completion (unordered, concurrent).
     * Blocks; the calling thread helps with any pending task. A single
     * task, or any batch on a size-1 pool, runs inline and in order.
     * When tasks throw, the batch still completes and the first
     * exception caught is rethrown here.
     */
    void runTasks(std::vector<std::function<void()>> tasks);

  private:
    /** One runTasks call's completion state, guarded by mu_. */
    struct Batch {
        std::size_t remaining = 0;
        std::exception_ptr error;
    };
    struct Task {
        std::function<void()> fn;
        Batch *batch = nullptr;
    };

    void workerLoop();
    /** Pop the queue's front task and run it with @p lk released; @p lk
     * is held on entry and on return. */
    void runFront(std::unique_lock<std::mutex> &lk);

    unsigned threads_ = 1;
    std::mutex mu_;
    /** Signals both a queued task and a finished batch. */
    std::condition_variable cv_;
    std::deque<Task> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace infs

#endif // INFS_SIM_THREAD_POOL_HH

#include "sim/thread_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace infs {

/** Completion tracking for one batch of tasks. */
struct ThreadPool::TaskGroup {
    std::atomic<std::size_t> remaining{0};
};

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    threads_ = threads;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(sleepMu_);
        stopping_.store(true);
    }
    sleepCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::setNumaPinning(std::vector<std::vector<unsigned>> node_cpus)
{
    std::lock_guard<std::mutex> lk(startMu_);
    if (started_.load(std::memory_order_relaxed))
        return; // Workers already placed; too late to move them.
    // Drop nodes with no CPUs (memory-only nodes take no workers); a
    // single remaining node means pinning buys nothing.
    std::erase_if(node_cpus,
                  [](const std::vector<unsigned> &c) { return c.empty(); });
    if (node_cpus.size() <= 1)
        return;
    nodeCpus_ = std::move(node_cpus);
}

void
ThreadPool::pinWorker(std::thread &t, unsigned index) const
{
#ifdef __linux__
    if (nodeCpus_.empty())
        return;
    // Round-robin workers across nodes: worker i serves the deterministic
    // chunk i of every parallelFor, so memory first-touched by worker i
    // stays local to its node for the whole run.
    const auto &cpus = nodeCpus_[index % nodeCpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned c : cpus) {
        if (c < CPU_SETSIZE)
            CPU_SET(c, &set);
    }
    if (CPU_COUNT(&set) > 0)
        pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
    (void)t;
    (void)index;
#endif
}

void
ThreadPool::startWorkers()
{
    if (started_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lk(startMu_);
    if (started_.load(std::memory_order_relaxed))
        return;
    const unsigned n_workers = threads_ - 1;
    queues_.reserve(n_workers);
    for (unsigned i = 0; i < n_workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(n_workers);
    for (unsigned i = 0; i < n_workers; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
        pinWorker(workers_.back(), i);
    }
    started_.store(true, std::memory_order_release);
}

void
ThreadPool::submit(std::vector<Task> &&tasks)
{
    startWorkers();
    // Round-robin across worker deques (plus the injection queue) so a
    // batch spreads before any stealing is needed.
    const std::size_t lanes = queues_.size() + 1;
    std::size_t lane = 0;
    for (Task &t : tasks) {
        WorkerQueue &q =
            lane < queues_.size() ? *queues_[lane] : inject_;
        {
            std::lock_guard<std::mutex> lk(q.mu);
            q.dq.push_back(std::move(t));
        }
        lane = (lane + 1) % lanes;
    }
    {
        // Empty critical section pairs with the workers' predicate check
        // so a notify cannot slip between their scan and their wait.
        std::lock_guard<std::mutex> lk(sleepMu_);
    }
    sleepCv_.notify_all();
}

bool
ThreadPool::tryTake(unsigned self, Task &out)
{
    // Own queue first, newest task (LIFO keeps caches warm) ...
    if (self < queues_.size()) {
        WorkerQueue &own = *queues_[self];
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.dq.empty()) {
            out = std::move(own.dq.back());
            own.dq.pop_back();
            return true;
        }
    }
    // ... then the injection queue, then steal the *oldest* task from a
    // victim (FIFO stealing takes the largest remaining chunk of work).
    {
        std::lock_guard<std::mutex> lk(inject_.mu);
        if (!inject_.dq.empty()) {
            out = std::move(inject_.dq.front());
            inject_.dq.pop_front();
            if (self != ~0u)
                stolen_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (v == self)
            continue;
        WorkerQueue &victim = *queues_[v];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.dq.empty()) {
            out = std::move(victim.dq.front());
            victim.dq.pop_front();
            if (self != ~0u)
                stolen_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::runTask(Task &&t)
{
    t.fn();
    if (t.group != nullptr) {
        if (t.group->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            std::lock_guard<std::mutex> lk(sleepMu_);
            sleepCv_.notify_all();
        }
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    auto anyPending = [this] {
        {
            std::lock_guard<std::mutex> lk(inject_.mu);
            if (!inject_.dq.empty())
                return true;
        }
        for (const auto &q : queues_) {
            std::lock_guard<std::mutex> lk(q->mu);
            if (!q->dq.empty())
                return true;
        }
        return false;
    };
    for (;;) {
        Task t;
        if (tryTake(self, t)) {
            runTask(std::move(t));
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMu_);
        if (stopping_.load())
            return;
        sleepCv_.wait(lk, [&] { return stopping_.load() || anyPending(); });
        if (stopping_.load())
            return;
    }
}

void
ThreadPool::helpUntilDone(TaskGroup &group)
{
    auto anyPending = [this] {
        {
            std::lock_guard<std::mutex> lk(inject_.mu);
            if (!inject_.dq.empty())
                return true;
        }
        for (const auto &q : queues_) {
            std::lock_guard<std::mutex> lk(q->mu);
            if (!q->dq.empty())
                return true;
        }
        return false;
    };
    for (;;) {
        if (group.remaining.load(std::memory_order_acquire) == 0)
            return;
        // Help: run *any* pending task (ours or a nested batch's) rather
        // than blocking — this is what makes nested parallelism safe.
        Task t;
        if (tryTake(~0u, t)) {
            runTask(std::move(t));
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMu_);
        if (group.remaining.load(std::memory_order_acquire) == 0)
            return;
        sleepCv_.wait(lk, [&] {
            return group.remaining.load(std::memory_order_acquire) == 0 ||
                   anyPending();
        });
    }
}

void
ThreadPool::runTasks(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    if (inlineOnly() || tasks.size() == 1) {
        for (auto &fn : tasks)
            fn();
        return;
    }
    TaskGroup group;
    group.remaining.store(tasks.size(), std::memory_order_relaxed);
    std::vector<Task> wrapped;
    wrapped.reserve(tasks.size());
    for (auto &fn : tasks)
        wrapped.push_back(Task{std::move(fn), &group});
    submit(std::move(wrapped));
    helpUntilDone(group);
}

void
ThreadPool::parallelFor(std::int64_t n,
                        const std::function<void(std::int64_t)> &fn,
                        std::int64_t grain)
{
    if (n <= 0)
        return;
    grain = std::max<std::int64_t>(grain, 1);
    if (inlineOnly() || n <= grain) {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Deterministic chunking: a pure function of (n, grain, threads) so
    // callers sharding per-chunk state get reproducible shards. ~4 chunks
    // per thread balances stealing against per-task overhead.
    const std::int64_t target_chunks =
        static_cast<std::int64_t>(threads_) * 4;
    const std::int64_t chunk = std::max<std::int64_t>(
        grain, (n + target_chunks - 1) / target_chunks);
    const std::int64_t n_chunks = (n + chunk - 1) / chunk;
    if (n_chunks <= 1) {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    TaskGroup group;
    group.remaining.store(static_cast<std::size_t>(n_chunks),
                          std::memory_order_relaxed);
    std::vector<Task> tasks;
    tasks.reserve(static_cast<std::size_t>(n_chunks));
    for (std::int64_t c = 0; c < n_chunks; ++c) {
        const std::int64_t lo = c * chunk;
        const std::int64_t hi = std::min(n, lo + chunk);
        tasks.push_back(Task{[&fn, lo, hi] {
                                 for (std::int64_t i = lo; i < hi; ++i)
                                     fn(i);
                             },
                             &group});
    }
    submit(std::move(tasks));
    helpUntilDone(group);
}

std::size_t
ThreadPool::pendingTasks() const
{
    std::size_t n = 0;
    {
        std::lock_guard<std::mutex> lk(inject_.mu);
        n += inject_.dq.size();
    }
    for (const auto &q : queues_) {
        std::lock_guard<std::mutex> lk(q->mu);
        n += q->dq.size();
    }
    return n;
}

} // namespace infs

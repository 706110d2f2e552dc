#include "sim/thread_pool.hh"

namespace infs {

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
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runFront(std::unique_lock<std::mutex> &lk)
{
    Task t = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    std::exception_ptr error;
    try {
        t.fn();
    } catch (...) {
        error = std::current_exception();
    }
    lk.lock();
    if (error && !t.batch->error)
        t.batch->error = std::move(error);
    if (--t.batch->remaining == 0)
        cv_.notify_all();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return;
        runFront(lk);
    }
}

void
ThreadPool::runTasks(std::vector<std::function<void()>> tasks)
{
    if (inlineOnly() || tasks.size() <= 1) {
        for (auto &fn : tasks)
            fn();
        return;
    }
    Batch batch;
    batch.remaining = tasks.size();
    std::unique_lock<std::mutex> lk(mu_);
    if (workers_.empty()) {
        workers_.reserve(threads_ - 1);
        for (unsigned i = 1; i < threads_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }
    for (auto &fn : tasks)
        queue_.push_back(Task{std::move(fn), &batch});
    cv_.notify_all();
    // Help rather than block: run any pending task, ours or a nested
    // batch's, until this batch has finished.
    for (;;) {
        cv_.wait(lk, [&] { return batch.remaining == 0 || !queue_.empty(); });
        if (batch.remaining == 0)
            break;
        runFront(lk);
    }
    if (batch.error)
        std::rethrow_exception(batch.error);
}

} // namespace infs

#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace remspan {

namespace {

/// The pool (and worker id) the current thread serves, if it is a pool
/// worker. A parallel call a worker makes on its own pool runs inline:
/// queueing helpers and waiting for them would deadlock once every worker
/// does the same, since nobody would be left to run the helpers.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker_id = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  tl_pool = this;
  tl_worker_id = worker_id;
  while (true) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t chunk) {
  parallel_for_workers(
      begin, end, [&body](std::size_t i, std::size_t /*worker*/) { body(i); }, chunk);
}

void ThreadPool::parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body, std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // Never enqueue more helpers than there are items beyond the caller's own:
  // surplus helpers would only wake up, fail the fetch_add race, and go back
  // to sleep — pure wakeup/teardown overhead on small inputs.
  const bool nested = tl_pool == this;
  const std::size_t helpers = nested ? 0 : std::min(workers_.size(), total - 1);
  if (helpers == 0) {
    const std::size_t caller_id = nested ? tl_worker_id : workers_.size();
    for (std::size_t i = begin; i < end; ++i) body(i, caller_id);
    return;
  }
  if (chunk == 0) {
    chunk = std::max<std::size_t>(1, total / ((helpers + 1) * 8));
  }

  struct Shared {
    std::atomic<std::size_t> next;
    std::size_t end;
    std::size_t chunk;
    const std::function<void(std::size_t, std::size_t)>* body;
    std::atomic<std::size_t> remaining;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  Shared shared;
  shared.next.store(begin, std::memory_order_relaxed);
  shared.end = end;
  shared.chunk = chunk;
  shared.body = &body;
  shared.remaining.store(helpers, std::memory_order_relaxed);

  auto drain = [&shared](std::size_t worker_id) {
    try {
      while (true) {
        const std::size_t lo =
            shared.next.fetch_add(shared.chunk, std::memory_order_relaxed);
        if (lo >= shared.end) break;
        const std::size_t hi = std::min(shared.end, lo + shared.chunk);
        for (std::size_t i = lo; i < hi; ++i) (*shared.body)(i, worker_id);
      }
    } catch (...) {
      std::lock_guard lock(shared.error_mutex);
      if (!shared.error) shared.error = std::current_exception();
      // Drop pending work so everyone exits promptly.
      shared.next.store(shared.end, std::memory_order_relaxed);
    }
  };

  {
    std::lock_guard lock(mutex_);
    for (std::size_t w = 0; w < helpers; ++w) {
      queue_.push(Task{[&shared, &drain, w] {
        drain(w);
        // The decrement must happen under done_mutex: if it preceded the
        // lock, the caller could observe remaining == 0 (spurious wakeup),
        // return, and destroy `shared` while this helper is still about to
        // lock/notify the destroyed mutex and condition variable.
        std::lock_guard done_lock(shared.done_mutex);
        if (shared.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          shared.done_cv.notify_all();
        }
      }});
    }
  }
  cv_.notify_all();

  // The caller thread participates with the last worker id.
  drain(workers_.size());

  std::unique_lock lock(shared.done_mutex);
  shared.done_cv.wait(lock, [&shared] {
    return shared.remaining.load(std::memory_order_acquire) == 0;
  });
  if (shared.error) std::rethrow_exception(shared.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace remspan

// Fixed-size worker pool with a blocking parallel_for. The per-root
// dominating-tree computations in core/ and the APSP sweeps in analysis/ are
// embarrassingly parallel across nodes; this pool is how they scale.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace remspan {

class ThreadPool {
 public:
  /// Spawns `threads` workers (hardware_concurrency() when 0).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Number of distinct worker ids parallel_for_workers can hand out: the
  /// pool threads plus the participating caller thread. Callers sizing
  /// per-worker scratch (builders, batch buffers) should use this instead
  /// of size() + 1 by hand.
  [[nodiscard]] std::size_t concurrency() const noexcept { return workers_.size() + 1; }

  /// Runs body(i) for every i in [begin, end), distributing dynamically in
  /// chunks, and blocks until all iterations finish. body must be safe to
  /// invoke concurrently from multiple threads. Exceptions from body are
  /// captured and the first one is rethrown on the caller thread. A call
  /// made from one of this pool's own workers runs inline on that worker,
  /// so nested parallel code cannot deadlock the pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t chunk = 0);

  /// Variant receiving (index, worker_id); worker_id < size()+1 indexes
  /// per-thread scratch space (the caller thread participates as the last
  /// worker id; a nested call keeps the calling worker's own id).
  void parallel_for_workers(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t, std::size_t)>& body,
                            std::size_t chunk = 0);

  /// Process-wide pool, sized from hardware concurrency; most call sites use
  /// this instead of constructing their own.
  [[nodiscard]] static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop(std::size_t worker_id);

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace remspan

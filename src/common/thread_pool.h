#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace harmony {

/// Fixed-size worker pool used by the block executor: the paper executes all
/// transactions of a block in parallel ("one process per transaction" in
/// PostgreSQL); we map transactions onto pool workers instead.
///
/// ParallelFor is the main entry point: it partitions [0, n) into chunks and
/// blocks until every chunk has run. Nested ParallelFor calls from within
/// tasks run inline to avoid deadlock.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [0, n), spread across the pool, and waits.
  /// If called from inside a pool worker, runs inline on the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Blocks until all submitted tasks have completed.
  void Wait();

 private:
  void WorkerLoop();
  static thread_local bool in_worker_;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace harmony

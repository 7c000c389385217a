#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>

namespace harmony {

thread_local bool ThreadPool::in_worker_ = false;

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  in_worker_ = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      active_++;
    }
    task();
    {
      std::unique_lock<std::mutex> lk(mu_);
      active_--;
      if (active_ == 0 && tasks_.empty()) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return active_ == 0 && tasks_.empty(); });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (in_worker_ || n == 1 || workers_.size() == 1) {
    for (size_t i = 0; i < n; i++) fn(i);
    return;
  }
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t per = (n + chunks - 1) / chunks;
  // done/mu/cv live on this frame, so a worker must never touch them after
  // the waiter can observe completion: the increment happens *under* the
  // mutex, which means the waiter's predicate only becomes true once the
  // last worker is inside the lock — and the wait() can't return until that
  // worker has released it and stopped referencing this stack.
  size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t c = 0; c < chunks; c++) {
    const size_t lo = c * per;
    const size_t hi = std::min(n, lo + per);
    if (lo >= hi) {
      std::lock_guard<std::mutex> lk(done_mu);
      done++;
      continue;
    }
    Submit([&, lo, hi] {
      for (size_t i = lo; i < hi; i++) fn(i);
      std::lock_guard<std::mutex> lk(done_mu);
      if (++done == chunks) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(done_mu);
  done_cv.wait(lk, [&] { return done == chunks; });
}

}  // namespace harmony

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace simcard {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {
// True on threads owned by a pool; ParallelFor falls back to inline
// execution there, so a nested call never waits on a worker it occupies.
thread_local bool t_is_pool_worker = false;
}  // namespace

void ThreadPool::WorkerLoop() {
  t_is_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool* GlobalThreadPool() {
  static ThreadPool pool;
  return &pool;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t min_chunk) {
  if (begin >= end) return;
  ThreadPool* pool = GlobalThreadPool();
  const size_t n = end - begin;
  const size_t workers = pool->num_threads();
  if (workers <= 1 || n <= min_chunk || t_is_pool_worker) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const size_t chunk = std::max<size_t>(1, min_chunk);
  // This call's own cursor and completion count: workers claim chunks in
  // index order until the range is exhausted, and the caller waits for
  // its helpers only, never for other callers' tasks. Helpers co-own the
  // state, so the last one may still be unlocking it after the caller
  // has returned.
  struct CallState {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t helpers_left = 0;
  };
  auto state = std::make_shared<CallState>();
  const size_t helpers = std::min(workers, (n + chunk - 1) / chunk);
  state->helpers_left = helpers;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, begin, n, chunk, &fn] {
      for (;;) {
        const size_t lo = state->next.fetch_add(chunk);
        if (lo >= n) break;
        const size_t hi = std::min(n, lo + chunk);
        for (size_t i = lo; i < hi; ++i) fn(begin + i);
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->helpers_left == 0) state->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state] { return state->helpers_left == 0; });
}

}  // namespace simcard

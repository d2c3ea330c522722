// Fixed-size thread pool and a ParallelFor helper.
//
// Set-up is written against ParallelFor: label construction (the paper's
// main offline cost, Exp-10) labels one query per task, and GL training runs
// the global model and each local model as one task each. The shared pool is
// hardware_concurrency wide; on a single-core machine ParallelFor degrades to
// sequential execution with no thread overhead. Each ParallelFor call waits
// only for its own range, so concurrent callers do not wait on each other,
// and a call made on a pool worker runs inline: the nested distance scan of a
// labelling task stays on that task's worker.
#ifndef SIMCARD_COMMON_THREAD_POOL_H_
#define SIMCARD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace simcard {

/// \brief A fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means "hardware
  /// concurrency", which may itself be 1.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Returns the process-wide shared pool (sized to hardware concurrency).
ThreadPool* GlobalThreadPool();

/// \brief Runs fn(i) exactly once for every i in [begin, end) on the global
/// pool and returns when this range is done.
///
/// Workers claim chunks of `min_chunk` consecutive indices, in index order,
/// from a per-call cursor, so one long index never holds a short one behind
/// it in the same chunk. Executes inline, in index order on the calling
/// thread, when the range fits in one chunk, only one worker exists, or the
/// caller is itself a pool worker. `fn` must be safe to call concurrently
/// for distinct i.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 size_t min_chunk = 256);

}  // namespace simcard

#endif  // SIMCARD_COMMON_THREAD_POOL_H_

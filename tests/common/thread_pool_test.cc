#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace simcard {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter(0);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter(0);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter(0);
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversEntireRange) {
  std::vector<int> hits(10000, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (const size_t n : {1, 2, 7, 17, 1000, 10001}) {
    for (const size_t min_chunk : {0, 1, 3, 256}) {
      std::vector<std::atomic<int>> hits(n + 5);
      ParallelFor(5, n + 5, [&](size_t i) { hits[i].fetch_add(1); },
                  min_chunk);
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < 5 ? 0 : 1)
            << "index " << i << " of n=" << n << " min_chunk=" << min_chunk;
      }
    }
  }
}

// Each call waits for its own range only: a caller whose range is done
// returns while another caller's task is still blocked on the pool.
TEST(ParallelForTest, ConcurrentCallersWaitOnlyForTheirOwnRange) {
  if (GlobalThreadPool()->num_threads() < 2) {
    GTEST_SKIP() << "needs two pool workers";
  }
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool release = false;
  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    ParallelFor(
        0, 2,
        [&](size_t i) {
          if (i != 0) return;
          std::unique_lock<std::mutex> lock(mu);
          blocked = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        },
        1);
    slow_done = true;
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }

  std::vector<std::atomic<int>> hits(1000);
  std::atomic<bool> fast_done{false};
  std::thread fast([&] {
    ParallelFor(0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, 1);
    fast_done = true;
  });
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  while (!fast_done && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fast_done.load()) << "waited on the other caller's task";
  EXPECT_FALSE(slow_done.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  fast.join();
  slow.join();
  EXPECT_TRUE(slow_done.load());
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RespectsOffsets) {
  std::vector<int> hits(100, 0);
  ParallelFor(10, 20, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 10 && i < 20) ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::atomic<int> counter(0);
  std::atomic<int> off_thread(0);
  ParallelFor(
      0, 2000,
      [&](size_t) {
        // A nested ParallelFor on a pool worker runs inline, on that
        // worker, rather than waiting on the pool it occupies.
        const std::thread::id outer = std::this_thread::get_id();
        ParallelFor(
            0, 4,
            [&](size_t) {
              counter.fetch_add(1);
              if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
            },
            1);
      },
      1);
  EXPECT_EQ(counter.load(), 8000);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  // With min_chunk larger than the range the body runs on this thread.
  std::thread::id main_id = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  ParallelFor(0, ids.size(),
              [&](size_t i) { ids[i] = std::this_thread::get_id(); }, 256);
  for (const auto& id : ids) EXPECT_EQ(id, main_id);
}

}  // namespace
}  // namespace simcard

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

namespace gvex {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksCanSubmitResultsViaCapture) {
  ThreadPool pool(3);
  std::vector<int> results(50, 0);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&results, i] { results[static_cast<size_t>(i)] = i * i; });
  }
  pool.Wait();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, ReusableAcrossWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 25; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 25 * (round + 1));
  }
}

TEST(ThreadPoolTest, WaitDrainsTasksSubmittedByRunningTasks) {
  ThreadPool pool(4);
  std::atomic<int> children{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &children] {
      pool.Submit([&children] { children.fetch_add(1); });
    });
  }
  pool.Wait();
  // Wait must observe transitively-enqueued work: every parent enqueues its
  // child before its own in-flight count drops, so the queue is never
  // observed empty with children outstanding.
  EXPECT_EQ(children.load(), 16);
}

TEST(ThreadPoolTest, DestructorRunsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): shutdown lets workers finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 40);
}

// Runs `fn(i)` for every i in [0, n), one shard per index: the per-index
// parallel loop that ParallelForShards provides.
void ParallelFor(int num_threads, int n, const std::function<void(int)>& fn) {
  ThreadPool::ParallelForShards(num_threads, n, n, [&fn](const Shard& shard) {
    for (int i = shard.begin; i < shard.end; ++i) fn(i);
  });
}

TEST(ParallelForTest, CoversAllIndices) {
  std::vector<int> hits(200, 0);
  ParallelFor(4, 200, [&hits](int i) { hits[static_cast<size_t>(i)] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 200);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(1, 5, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroIterationsNoOp) {
  ParallelFor(4, 0, [](int) { FAIL(); });
}

TEST(ParallelForTest, ExactlyOnceUnderContention) {
  // Oversubscribe the machine and make per-index work uneven so workers
  // race on the queue; every index must still be visited exactly once.
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(16, n, [&hits](int i) {
    volatile int sink = 0;
    for (int k = 0; k < (i % 37) * 50; ++k) sink += k;
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MoreThreadsThanIterations) {
  std::vector<int> hits(3, 0);
  ParallelFor(8, 3, [&hits](int i) { hits[static_cast<size_t>(i)] += 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(MakeShardsTest, PartitionsRangeExactly) {
  const auto shards = ThreadPool::MakeShards(4, 10);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards.front().begin, 0);
  EXPECT_EQ(shards.back().end, 10);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].index, static_cast<int>(s));
    EXPECT_GT(shards[s].size(), 0);
    if (s > 0) {
      EXPECT_EQ(shards[s].begin, shards[s - 1].end);
    }
  }
}

TEST(MakeShardsTest, SizesDifferByAtMostOne) {
  for (int n : {1, 7, 16, 100, 101}) {
    for (int k : {1, 2, 3, 8}) {
      const auto shards = ThreadPool::MakeShards(k, n);
      int smallest = n, largest = 0;
      for (const Shard& s : shards) {
        smallest = std::min(smallest, s.size());
        largest = std::max(largest, s.size());
      }
      EXPECT_LE(largest - smallest, 1) << "k=" << k << " n=" << n;
    }
  }
}

TEST(MakeShardsTest, NeverMoreShardsThanIndices) {
  const auto shards = ThreadPool::MakeShards(8, 3);
  ASSERT_EQ(shards.size(), 3u);
  for (const Shard& s : shards) EXPECT_EQ(s.size(), 1);
}

TEST(MakeShardsTest, EmptyRangeYieldsNoShards) {
  EXPECT_TRUE(ThreadPool::MakeShards(4, 0).empty());
  EXPECT_TRUE(ThreadPool::MakeShards(0, 4).empty());
}

TEST(MakeShardsTest, LayoutIsDeterministic) {
  const auto a = ThreadPool::MakeShards(5, 33);
  const auto b = ThreadPool::MakeShards(5, 33);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].begin, b[s].begin);
    EXPECT_EQ(a[s].end, b[s].end);
  }
}

TEST(RunShardedTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const int n = 500;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.RunSharded(16, n, [&hits](const Shard& shard) {
    for (int i = shard.begin; i < shard.end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(RunShardedTest, ActsAsBarrier) {
  // Every shard's work must be visible once RunSharded returns.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  pool.RunSharded(12, 120, [&done](const Shard& shard) {
    volatile int sink = 0;
    for (int k = 0; k < shard.size() * 100; ++k) sink += k;
    done.fetch_add(shard.size());
  });
  EXPECT_EQ(done.load(), 120);
}

TEST(RunShardedTest, ShardIndexedAccumulatorsMergeDeterministically) {
  // The sharded-accumulator idiom used by GenerateViews: each shard appends
  // its indices to a shard-local vector; concatenation in shard order must
  // equal the sequential order however shards were scheduled.
  ThreadPool pool(4);
  const int n = 97;
  const auto layout = ThreadPool::MakeShards(8, n);
  std::vector<std::vector<int>> accs(layout.size());
  pool.RunSharded(8, n, [&accs](const Shard& shard) {
    auto& acc = accs[static_cast<size_t>(shard.index)];
    for (int i = shard.begin; i < shard.end; ++i) acc.push_back(i);
  });
  std::vector<int> merged;
  for (const auto& acc : accs) {
    merged.insert(merged.end(), acc.begin(), acc.end());
  }
  std::vector<int> expected(static_cast<size_t>(n));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(merged, expected);
}

TEST(RunShardedTest, PoolIsReusableAfterShardedRun) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.RunSharded(4, 40, [&count](const Shard& s) {
    count.fetch_add(s.size());
  });
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 41);
}

TEST(ParallelForShardsTest, SingleThreadRunsInlineInShardOrder) {
  for (int threads : {1, 0}) {
    std::vector<int> order;
    std::vector<int> indices;
    ThreadPool::ParallelForShards(
        threads, 3, 9, [&order, &indices](const Shard& shard) {
          order.push_back(shard.index);
          for (int i = shard.begin; i < shard.end; ++i) indices.push_back(i);
        });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2})) << "threads=" << threads;
    EXPECT_EQ(indices, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}))
        << "threads=" << threads;
  }
}

TEST(ParallelForShardsTest, MultiThreadCoversRange) {
  const int n = 200;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ThreadPool::ParallelForShards(4, 16, n, [&hits](const Shard& shard) {
    for (int i = shard.begin; i < shard.end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForShardsTest, DefaultShardCountIsPerWorker) {
  std::atomic<int> shard_count{0};
  ThreadPool::ParallelForShards(3, 0, 30, [&shard_count](const Shard&) {
    shard_count.fetch_add(1);
  });
  EXPECT_EQ(shard_count.load(), 3);
}

TEST(ParallelForShardsTest, ZeroIterationsNoOp) {
  ThreadPool::ParallelForShards(4, 8, 0, [](const Shard&) { FAIL(); });
  ThreadPool::ParallelForShards(4, 8, -3, [](const Shard&) { FAIL(); });
  ThreadPool::ParallelForShards(1, 8, 0, [](const Shard&) { FAIL(); });
}

}  // namespace
}  // namespace gvex

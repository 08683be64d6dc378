// Fixed-size worker pool used for the parallel per-graph view generation
// scheme of the paper (§A.7 "Parallel Implementation").

#ifndef GVEX_UTIL_THREAD_POOL_H_
#define GVEX_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gvex {

/// One contiguous batch of a [0, n) index range, produced by
/// `ThreadPool::MakeShards`. Shards are the unit of work for the sharded
/// view-generation scheme: each shard is processed sequentially by one
/// worker into a shard-local accumulator, and accumulators are merged in
/// `index` order at the barrier, so results are independent of which worker
/// ran which shard.
struct Shard {
  int index = 0;  ///< Position in the deterministic shard order.
  int begin = 0;  ///< First index covered (inclusive).
  int end = 0;    ///< One past the last index covered.

  int size() const { return end - begin; }
};

/// A minimal task queue + worker threads. Tasks are void(); results are
/// communicated through captured state. `Wait` blocks until the queue drains
/// and all in-flight tasks finish.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Partitions [0, n) into at most `num_shards` contiguous, near-equal,
  /// non-empty batches. The partition is a pure function of (num_shards, n),
  /// so callers can pre-size per-shard accumulators with the same call and
  /// rely on the layout. Returns min(num_shards, n) shards (none when
  /// n <= 0); sizes differ by at most one.
  static std::vector<Shard> MakeShards(int num_shards, int n);

  /// Sharded submit: enqueues `fn(shard)` for every shard of
  /// `MakeShards(num_shards, n)` onto this pool and blocks until all of them
  /// finish (the merge barrier). Workers pull shards dynamically, so using
  /// more shards than workers (batching) load-balances uneven per-index
  /// costs while keeping the shard layout — and therefore any shard-indexed
  /// accumulator merge — deterministic.
  void RunSharded(int num_shards, int n,
                  const std::function<void(const Shard&)>& fn);

  /// Convenience wrapper over `RunSharded` that runs the shards inline (in
  /// shard order) when `num_threads` <= 1 and otherwise on a transient pool
  /// of `num_threads` workers. `num_shards` <= 0 defaults to one shard per
  /// worker.
  static void ParallelForShards(int num_threads, int num_shards, int n,
                                const std::function<void(const Shard&)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signalled when work arrives / shutdown
  std::condition_variable done_cv_;   // signalled when a task completes
  int in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace gvex

#endif  // GVEX_UTIL_THREAD_POOL_H_

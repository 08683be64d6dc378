#include "util/thread_pool.h"

#include <cassert>

namespace gvex {

ThreadPool::ThreadPool(int num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

std::vector<Shard> ThreadPool::MakeShards(int num_shards, int n) {
  std::vector<Shard> shards;
  if (n <= 0 || num_shards <= 0) return shards;
  const int count = num_shards < n ? num_shards : n;
  shards.reserve(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    Shard shard;
    shard.index = s;
    // Spread the remainder over the leading shards: sizes differ by <= 1.
    shard.begin = static_cast<int>(static_cast<int64_t>(s) * n / count);
    shard.end = static_cast<int>(static_cast<int64_t>(s + 1) * n / count);
    shards.push_back(shard);
  }
  return shards;
}

void ThreadPool::RunSharded(int num_shards, int n,
                            const std::function<void(const Shard&)>& fn) {
  const std::vector<Shard> shards = MakeShards(num_shards, n);
  for (const Shard& shard : shards) {
    Submit([&fn, shard] { fn(shard); });
  }
  Wait();
}

void ThreadPool::ParallelForShards(int num_threads, int num_shards, int n,
                                   const std::function<void(const Shard&)>& fn) {
  if (n <= 0) return;
  if (num_shards <= 0) num_shards = num_threads > 1 ? num_threads : 1;
  if (num_threads <= 1) {
    for (const Shard& shard : MakeShards(num_shards, n)) fn(shard);
    return;
  }
  ThreadPool pool(num_threads);
  pool.RunSharded(num_shards, n, fn);
}

}  // namespace gvex

#ifndef SDADCS_UTIL_THREAD_POOL_H_
#define SDADCS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdadcs::util {

/// Fixed-size worker pool: the serving dispatcher's executor. Tasks are
/// plain std::function<void()>; exceptions must not escape a task (the
/// library does not use exceptions).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sdadcs::util

#endif  // SDADCS_UTIL_THREAD_POOL_H_

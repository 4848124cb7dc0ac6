// Fixed-size worker pool used by the sweep runner.
//
// Deliberately minimal: a bounded set of workers draining one FIFO queue of
// type-erased tasks. Ordering guarantees, futures and result collection live
// one layer up in SweepRunner; this class only provides the threads.
//
// All shared state is GUARDED_BY(mu_) and verified by clang's thread-safety
// analysis (see core/annotations.hpp): an unguarded touch of the queue or the
// stop flag fails the build.
#ifndef SWL_RUNNER_THREAD_POOL_HPP
#define SWL_RUNNER_THREAD_POOL_HPP

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/sync.hpp"

namespace swl::runner {

class ThreadPool {
 public:
  /// Starts `threads` workers. Requires threads >= 1.
  explicit ThreadPool(unsigned threads);

  /// Drains the queue (tasks already submitted still run), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it runs on some worker, in FIFO dispatch order.
  void submit(std::function<void()> task) EXCLUDES(mu_);

 private:
  void worker_loop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written by the constructor only
};

}  // namespace swl::runner

#endif  // SWL_RUNNER_THREAD_POOL_HPP

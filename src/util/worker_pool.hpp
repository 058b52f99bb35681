// The repo's one worker pool (DESIGN.md §4, §9, §12).
//
// It runs index spaces: the experiment grids' independent scenario cells
// (src/sim/), the sharded service's lockstep barriers (src/shard/) and the
// PDES window advance (src/pdes/). The workers live as long as the pool,
// so a replay's thousands of short barriers pay no thread spawn. run()
// publishes one job under a mutex, wakes the workers, takes part itself,
// and blocks until every index is done.
//
// Contract:
//   * the caller is one of the `threads` lanes, so the pool spawns
//     threads - 1 workers;
//   * indices are claimed in ascending order from a shared counter;
//   * every index runs, even after one throws, and the exception from the
//     lowest throwing index is rethrown on the caller — the same one for
//     any thread count and interleaving;
//   * a one-thread pool, or a one-index run, executes inline on the caller
//     with no synchronization (trivially deterministic under TSan);
//   * run() is not reentrant: no index may call run() on its own pool.
//
// Determinism is the callers' part: results go to slots addressed by
// index and randomness derives from the index (util::derive_seed), never
// from thread identity or claim order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace resched::util {

class WorkerPool {
 public:
  /// Pool of `threads` lanes (>= 1), the caller included.
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  int threads() const { return threads_; }

  /// Runs fn(0) ... fn(n-1) across the lanes and returns when every index
  /// has finished (a full barrier). Each index runs exactly once. If any
  /// index throws, the remaining indices still run and the exception from
  /// the lowest throwing index is rethrown on the caller. Not reentrant.
  void run(int n, const std::function<void(int)>& fn);

 private:
  void worker_loop();
  /// Claims indices until exhausted; called by workers and the caller.
  void drain();

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new epoch
  std::condition_variable done_cv_;  ///< caller waits for the barrier
  std::uint64_t epoch_ = 0;          ///< bumped per run() to publish work
  bool stopping_ = false;

  // Job state for the current epoch (valid while the caller is inside
  // run()).
  const std::function<void(int)>* fn_ = nullptr;
  int n_ = 0;
  int next_ = 0;       ///< next unclaimed index (under mu_)
  int done_ = 0;       ///< finished indices (under mu_)
  int error_index_ = 0;
  std::exception_ptr error_;
};

}  // namespace resched::util

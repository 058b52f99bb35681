#include "src/util/worker_pool.hpp"

#include "src/util/error.hpp"

namespace resched::util {

WorkerPool::WorkerPool(int threads) : threads_(threads) {
  RESCHED_CHECK(threads >= 1, "worker pool needs at least one thread");
  // The caller participates in every run(), so N concurrent lanes need
  // only N-1 spawned workers (and one thread spawns none at all).
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::run(int n, const std::function<void(int)>& fn) {
  RESCHED_CHECK(n >= 0, "worker pool run needs n >= 0");
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline, but with the same always-complete contract as the pooled
    // path: every index runs even when an earlier one throws.
    std::exception_ptr error;
    for (int i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    done_ = 0;
    error_index_ = n;
    error_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();
  drain();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_ == n_; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void WorkerPool::drain() {
  for (;;) {
    int i;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= n_) return;
      i = next_++;
    }
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_ == n_) done_cv_.notify_all();
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
      if (stopping_) return;
      seen = epoch_;
    }
    drain();
  }
}

}  // namespace resched::util

#include "common/thread_pool.h"

#include <atomic>

#include "common/check.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mmhar {
namespace {

thread_local bool tl_in_pool_worker = false;
// Atomic so that a reader racing a test's set_global_pool_for_testing sees
// either the old or the new pool, never a torn value (TSan-clean even when
// tests swap pools between parallel sections).
std::atomic<ThreadPool*> g_pool_override{nullptr};

}  // namespace

bool ThreadPool::in_worker() { return tl_in_pool_worker; }

std::size_t ThreadPool::resolve_num_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 2;
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve_num_threads(num_threads)) {
  workers_.reserve(num_threads_);
  for (std::size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tl_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && tasks_.empty()) cv_.wait(mu_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  // Nested parallelism: a worker has no free pool thread to hand chunks
  // to, and blocking on the queue from a worker can deadlock the pool.
  if (tl_in_pool_worker) {
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t parts = std::min(n, size() + 1);
  if (parts <= 1) {
    fn(begin, end);
    return;
  }

  // Completion protocol (the happens-before chain TSan verifies):
  //  1. a worker's writes inside fn() happen-before its
  //     `remaining.fetch_sub(acq_rel)`; the acq_rel RMW chain makes every
  //     earlier worker's effects visible to whichever worker decrements
  //     the count to zero;
  //  2. only that last worker touches `done`: it sets it (and notifies)
  //     while holding `state.mu`, and never touches `state` after
  //     releasing the lock;
  //  3. the caller's wait predicate reads `done` under the same mutex, so
  //     it cannot return — and destroy the stack-allocated `state` —
  //     until the last worker has released `state.mu` for the final time.
  // The wait loop must NOT read the atomic counter: the caller could then
  // observe zero (and free `state`) in the window between the last
  // worker's decrement and its mutex acquisition.
  // `error` is written under `state.mu` and copied out inside the same
  // critical section that observes `done`, so it is ordered by the mutex
  // alone.
  struct State {
    std::atomic<std::size_t> remaining;
    Mutex mu;
    CondVar done_cv;
    std::exception_ptr error MMHAR_GUARDED_BY(mu);
    bool done MMHAR_GUARDED_BY(mu) = false;
  } state;
  state.remaining.store(parts - 1, std::memory_order_relaxed);

  const std::size_t chunk = (n + parts - 1) / parts;
  // Chunks 1..parts-1 go to the pool; chunk 0 runs on the caller thread.
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t lo = begin + p * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    enqueue([&state, &fn, lo, hi] {
      try {
        if (lo < hi) fn(lo, hi);
      } catch (...) {
        MutexLock lk(state.mu);
        if (!state.error) state.error = std::current_exception();
      }
      if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Set the flag and notify under the lock: the caller can only wake
        // and destroy `state` after this thread releases `state.mu`.
        MutexLock lk(state.mu);
        state.done = true;
        state.done_cv.notify_one();
      }
    });
  }

  std::exception_ptr caller_error;
  try {
    fn(begin, std::min(end, begin + chunk));
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::exception_ptr worker_error;
  {
    MutexLock lk(state.mu);
    while (!state.done) state.done_cv.wait(state.mu);
    // Copy the error out under the same hold that observed `done`: a read
    // after the scope would touch guarded state with the lock dropped
    // (a latent discipline violation the annotations surfaced).
    worker_error = state.error;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

ThreadPool& global_pool() {
  // Magic static: MMHAR_THREADS is read exactly once, at first dispatch,
  // and frozen for the process lifetime. Worker count never feeds any
  // result — the PR-1/3 invariant (bit-identical for any MMHAR_THREADS)
  // is exactly what mmhar_check's other det rules prove for callers.
  static ThreadPool pool(
      // mmhar: allow(det-env-read)
      static_cast<std::size_t>(env_int("MMHAR_THREADS", 0)));
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  return override_pool != nullptr ? *override_pool : pool;
}

void set_global_pool_for_testing(ThreadPool* pool) {
  g_pool_override.store(pool, std::memory_order_release);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(begin, end, fn);
}

}  // namespace mmhar

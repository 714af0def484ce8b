// Capability-annotated lock types for clang Thread Safety Analysis.
//
// libstdc++'s std::mutex / std::shared_mutex carry no capability
// attributes, so they cannot appear in MMHAR_GUARDED_BY / MMHAR_REQUIRES
// expressions — the analysis would reject the attribute itself. These
// zero-overhead wrappers (every method is a single inlined forward) give
// the repo lockable types the analysis understands:
//
//   Mutex + MutexLock            exclusive critical sections
//   SharedMutex + ReaderLock /   read-mostly caches (FFT plans, window
//     WriterLock                 tables): shared hold for lookups,
//                                exclusive hold for inserts
//   CondVar                      condition waits; wait() REQUIRES the
//                                mutex so the analysis checks the caller
//                                holds it across the wait loop
//
// Waiting is expressed as an explicit predicate loop
// (`while (!ready) cv.wait(mu);`) rather than the std::condition_variable
// predicate-lambda overload: the lambda body would read guarded state
// from a context the analysis cannot see holds the lock.
//
// On GCC the attributes vanish (see common/thread_annotations.h) and the
// wrappers compile to exactly the std:: types they hold.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace mmhar {

class CondVar;

/// std::mutex with the `capability` attribute the analysis requires.
class MMHAR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MMHAR_ACQUIRE() { mu_.lock(); }
  void unlock() MMHAR_RELEASE() { mu_.unlock(); }
  bool try_lock() MMHAR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::shared_mutex with the `capability` attribute.
class MMHAR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MMHAR_ACQUIRE() { mu_.lock(); }
  void unlock() MMHAR_RELEASE() { mu_.unlock(); }
  void lock_shared() MMHAR_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() MMHAR_RELEASE() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive hold of a Mutex (the annotated std::lock_guard).
class MMHAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MMHAR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MMHAR_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared hold of a SharedMutex (lookups in read-mostly caches).
class MMHAR_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) MMHAR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() MMHAR_RELEASE() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive hold of a SharedMutex (inserts into those caches).
class MMHAR_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) MMHAR_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() MMHAR_RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to Mutex. wait() REQUIRES the mutex held; the
/// transient unlock inside the wait is invisible to (and irrelevant for)
/// the analysis, which only needs the hold on entry and exit.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) MMHAR_REQUIRES(mu) {
    // Adopt the caller's hold for the duration of the wait, then release
    // the unique_lock's ownership so its destructor leaves the mutex to
    // the caller's RAII scope.
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mmhar

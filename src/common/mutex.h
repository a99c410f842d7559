#ifndef MINIRAID_COMMON_MUTEX_H_
#define MINIRAID_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace miniraid {

/// The repo's annotated mutex: a std::mutex carrying the Clang Thread
/// Safety Analysis `capability` attribute, so fields declared
/// MR_GUARDED_BY(mu_) are compile-time rejected when accessed without it.
/// All concurrent code outside src/common/ must use this wrapper (and
/// MutexLock / CondVar below) instead of the raw standard-library types —
/// miniraid-analyze's raw-mutex rule enforces that, the `clang-tsa` preset
/// enforces the lock discipline itself.
class MR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MR_ACQUIRE() { mu_.lock(); }
  void Unlock() MR_RELEASE() { mu_.unlock(); }
  bool TryLock() MR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex (std::lock_guard shape, TSA `scoped_lockable`).
class MR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MR_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MR_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. The Wait family takes the held
/// Mutex explicitly (MR_REQUIRES), so the analysis knows the lock is held
/// across the wait. There is deliberately no predicate overload: write the
/// standard loop instead —
///
///   MutexLock lock(mu_);
///   while (!done_) cv_.Wait(mu_);
///
/// — the analysis then sees every read of the guarded predicate happen
/// under the lock (a predicate lambda would be opaque to it).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires it before returning.
  void Wait(Mutex& mu) MR_REQUIRES(mu) MR_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Like Wait, but gives up at `deadline`. Returns true on timeout.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      MR_REQUIRES(mu) MR_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::timeout;
  }

  /// Like Wait, but gives up after `timeout_ns` nanoseconds (the repo's
  /// Duration unit). Returns true on timeout.
  bool WaitFor(Mutex& mu, int64_t timeout_ns) MR_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(timeout_ns));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace miniraid

#endif  // MINIRAID_COMMON_MUTEX_H_

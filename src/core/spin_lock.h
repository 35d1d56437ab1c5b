#ifndef RUMLAB_CORE_SPIN_LOCK_H_
#define RUMLAB_CORE_SPIN_LOCK_H_

#include <atomic>
#include <cstdint>

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#endif

namespace rum {

/// A spin-then-park mutual-exclusion lock (a Lockable: lock / try_lock /
/// unlock, so std::lock_guard and std::unique_lock work with it).
///
/// It exists for the short critical sections every request of the shared
/// cache path enters several times -- a cache partition's map probe and LRU
/// splice (plus a page read and write-back on a miss), or the scheduler's
/// ledger update.
/// Those holds last a few hundred nanoseconds, well under the cost of a
/// futex sleep and wake-up, so a std::mutex that parks the waiter on every
/// contended hand-off spends more time in the kernel than in the section.
///
/// Design:
///  - uncontended lock and unlock are one atomic read-modify-write each;
///  - in a process that has never started a second thread (glibc's
///    __libc_single_threaded) they are a plain load and store instead, as
///    in glibc's own mutex, so a single-client run pays no locked
///    instruction for them;
///  - a contended waiter spins test-and-test-and-set (it reads the word and
///    tries the exchange only when it sees the lock free), with a CPU
///    `pause` between reads, for a bounded budget of kSpinLimit reads;
///  - past the budget it parks on the lock word with
///    std::atomic<uint32_t>::wait. The word has three states (free, held,
///    held with possible parked waiters), so unlock issues a notify_one
///    only when someone may be parked.
/// Parking keeps a waiter from burning a CPU when the holder is descheduled
/// (an oversubscribed test run), where pure spinning would.
///
/// Not recursive, not fair. Use std::mutex for long or rare sections.
class SpinLock {
 public:
  /// Reads of the lock word a contended waiter makes before it parks.
  static constexpr int kSpinLimit = 256;

  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    if (SingleThreaded() && state_.load(std::memory_order_relaxed) == kFree) {
      state_.store(kHeld, std::memory_order_relaxed);
      return;
    }
    uint32_t expected = kFree;
    if (state_.compare_exchange_strong(expected, kHeld,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    LockContended();
  }

  bool try_lock() {
    uint32_t expected = kFree;
    return state_.load(std::memory_order_relaxed) == kFree &&
           state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (SingleThreaded()) {  // No other thread can be waiting.
      state_.store(kFree, std::memory_order_release);
      return;
    }
    if (state_.exchange(kFree, std::memory_order_release) == kParked) {
      state_.notify_one();
    }
  }

  /// True while the lock is held and a waiter may be parked on it (tests).
  bool has_parked_waiter() const {
    return state_.load(std::memory_order_relaxed) == kParked;
  }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kHeld = 1;
  static constexpr uint32_t kParked = 2;  // Held; waiters may be parked.

  /// True only while the calling thread is the process's only thread, so a
  /// plain store cannot race another holder or strand a parked waiter.
  /// Starting a thread clears the flag first and orders every store made
  /// before it, so a lock taken on the plain path may be released on the
  /// atomic one.
  static bool SingleThreaded() {
#if __has_include(<sys/single_threaded.h>)
    return __libc_single_threaded != 0;
#else
    return false;
#endif
  }

  /// The contended path: spin, then park. Out of line so the uncontended
  /// lock() stays small enough to inline.
  void LockContended();

  std::atomic<uint32_t> state_{kFree};
};

}  // namespace rum

#endif  // RUMLAB_CORE_SPIN_LOCK_H_

#include "core/spin_lock.h"

namespace rum {

namespace {
/// Tells the core this is a spin-wait loop: on x86 `pause` yields the
/// pipeline to the sibling hyperthread and avoids the memory-order
/// mis-speculation flush when the watched line changes.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}
}  // namespace

void SpinLock::LockContended() {
  for (int i = 0; i < kSpinLimit; ++i) {
    CpuRelax();
    // Test before test-and-set: read-only spinning keeps the line shared
    // instead of bouncing it between waiters.
    uint32_t seen = state_.load(std::memory_order_relaxed);
    if (seen == kFree &&
        state_.compare_exchange_weak(seen, kHeld, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
  // Park. Taking the lock from here leaves it in kParked, not kHeld: this
  // thread cannot tell whether others are still parked, so its unlock must
  // wake one (a spurious wake only costs the woken thread a re-check).
  while (state_.exchange(kParked, std::memory_order_acquire) != kFree) {
    state_.wait(kParked, std::memory_order_relaxed);
  }
}

}  // namespace rum

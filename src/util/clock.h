// Time source abstraction. All latency measurement and simulated-device
// latency injection goes through a Clock so tests can use a mock and the
// device simulators can busy-inject precise delays.

#ifndef PMBLADE_UTIL_CLOCK_H_
#define PMBLADE_UTIL_CLOCK_H_

#include <cstdint>

namespace pmblade {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual uint64_t NowNanos() = 0;

  /// Blocks the caller for approximately `nanos` ns. Implementations used by
  /// the device simulators must be accurate at microsecond scale (the default
  /// spins for short waits and sleeps for long ones).
  virtual void SleepForNanos(uint64_t nanos);
};

/// The real steady clock; singleton.
Clock* SystemClock();

/// Deterministic, manually advanced clock for unit tests. SleepForNanos
/// advances the virtual time instead of blocking.
class MockClock : public Clock {
 public:
  explicit MockClock(uint64_t start_nanos = 0) : now_(start_nanos) {}

  uint64_t NowNanos() override { return now_; }
  void SleepForNanos(uint64_t nanos) override { now_ += nanos; }
  void Advance(uint64_t nanos) { now_ += nanos; }

 private:
  uint64_t now_;
};

/// RAII stopwatch that adds the elapsed nanoseconds to *out on destruction.
class ScopedTimer {
 public:
  ScopedTimer(Clock* clock, uint64_t* out)
      : clock_(clock), out_(out), start_(clock->NowNanos()) {}
  ~ScopedTimer() { *out_ += clock_->NowNanos() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Clock* clock_;
  uint64_t* out_;
  uint64_t start_;
};

}  // namespace pmblade

#endif  // PMBLADE_UTIL_CLOCK_H_

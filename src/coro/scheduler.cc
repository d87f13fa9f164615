#include "coro/scheduler.h"

#include <algorithm>
#include <cassert>

namespace pmblade {

CoroScheduler::CoroScheduler(Clock* clock)
    : clock_(clock != nullptr ? clock : SystemClock()) {}

CoroScheduler::~CoroScheduler() {
  for (auto h : tasks_) {
    if (h) h.destroy();
  }
}

void CoroScheduler::Spawn(Task task) {
  auto handle = task.Release();
  assert(handle);
  handle.promise().scheduler = this;
  tasks_.push_back(handle);
  ready_.push_back(handle);
}

void CoroScheduler::Run() {
  const uint64_t run_start = clock_->NowNanos();
  while (true) {
    // Wake due sleepers.
    const uint64_t now = clock_->NowNanos();
    while (!sleepers_.empty() && sleepers_.top().wake_at_nanos <= now) {
      ready_.push_back(sleepers_.top().handle);
      sleepers_.pop();
    }

    if (!ready_.empty()) {
      auto h = ready_.front();
      ready_.pop_front();
      if (h.done()) continue;  // completed while parked (shouldn't happen)
      const uint64_t slice_start = clock_->NowNanos();
      h.resume();
      cpu_busy_nanos_ += clock_->NowNanos() - slice_start;
      ++resumes_;
      continue;
    }

    if (!sleepers_.empty()) {
      // Nothing runnable: advance to the earliest deadline. This models the
      // worker thread blocking on I/O completion.
      uint64_t wake = sleepers_.top().wake_at_nanos;
      uint64_t current = clock_->NowNanos();
      if (wake > current) clock_->SleepForNanos(wake - current);
      continue;
    }

    // No ready work and no sleepers: done if all tasks completed; stuck
    // (waiting on an Event nobody will notify) would be a caller bug.
    assert(std::all_of(tasks_.begin(), tasks_.end(),
                       [](auto h) { return !h || h.done(); }) &&
           "scheduler idle with unfinished coroutines");
    break;
  }
  wall_nanos_ = clock_->NowNanos() - run_start;

  // Reap frames.
  for (auto& h : tasks_) {
    if (h) {
      assert(h.done());
      h.destroy();
      h = {};
    }
  }
  tasks_.clear();
}

}  // namespace pmblade

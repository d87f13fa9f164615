// The benchmark's arithmetic, kept apart so its self-tests can pin it:
// percentiles, medians, guarded ratios, GET reply classification, span
// containment matching and the quiesce wait.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/resp.h"

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample: the
/// smallest value with at least p% of the sample at or below it. 0 for an
/// empty sample.
double Percentile(std::vector<double> sample, double p);

/// Median of an unsorted sample (mean of the two middle values when the
/// size is even). 0 for an empty sample.
double Median(std::vector<double> sample);

/// Indices of the ceil(n/2) rounds with the highest throughput, fastest
/// first. Wall-clock figures are taken over these rounds only: host CPU
/// steal only ever slows a round down, so the faster half tracks the
/// program and the slower half tracks the host.
std::vector<size_t> FasterHalf(const std::vector<double>& throughput);

/// num / den, or 0 when den is 0 (a layer that saw no work reports 0).
double Ratio(double num, double den);

/// How a GET reply counts: a bulk string is a hit, nil a miss, anything
/// else (error, -BUSY, wrong type) a failure.
enum class GetReply { kHit, kMiss, kFailed };
GetReply ClassifyGetReply(const pmblade::net::RespValue& reply);

/// A request seen from the client, or a DB call seen by the DB wrapper.
struct TimedKey {
  uint64_t key = 0;
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Self time of each client request: its duration minus the duration of
/// the DB calls on the same key that lie wholly inside it. Requests with no
/// enclosed DB call are skipped (their server-side span was not recorded).
/// `calls` need not be sorted.
std::vector<double> SelfTimes(const std::vector<TimedKey>& requests,
                              std::vector<TimedKey> calls);

/// Polls `idle` until it has returned true on `stable_polls` consecutive
/// polls, `poll` apart. Returns false if `timeout` passes first.
bool WaitForIdle(const std::function<bool()>& idle,
                 std::chrono::milliseconds timeout,
                 std::chrono::milliseconds poll = std::chrono::milliseconds(5),
                 int stable_polls = 3);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  const size_t n = sample.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(sample.begin(), sample.begin() + (rank - 1), sample.end());
  return sample[rank - 1];
}

double Median(std::vector<double> sample) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : (sample[n / 2 - 1] + sample[n / 2]) / 2;
}

std::vector<size_t> FasterHalf(const std::vector<double>& throughput) {
  std::vector<size_t> idx(throughput.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return throughput[a] > throughput[b];
  });
  idx.resize((idx.size() + 1) / 2);
  return idx;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

GetReply ClassifyGetReply(const pmblade::net::RespValue& reply) {
  using Type = pmblade::net::RespValue::Type;
  if (reply.type == Type::kBulkString) return GetReply::kHit;
  if (reply.type == Type::kNull) return GetReply::kMiss;
  return GetReply::kFailed;
}

std::vector<double> SelfTimes(const std::vector<TimedKey>& requests,
                              std::vector<TimedKey> calls) {
  std::sort(calls.begin(), calls.end(),
            [](const TimedKey& a, const TimedKey& b) {
              return a.start < b.start;
            });
  std::unordered_map<uint64_t, std::vector<const TimedKey*>> by_key;
  for (const auto& c : calls) by_key[c.key].push_back(&c);

  std::vector<double> self;
  for (const auto& r : requests) {
    auto it = by_key.find(r.key);
    if (it == by_key.end()) continue;
    const auto& list = it->second;  // sorted by start
    auto first = std::lower_bound(
        list.begin(), list.end(), r.start,
        [](const TimedKey* c, uint64_t t) { return c->start < t; });
    uint64_t inner = 0;
    bool matched = false;
    for (auto c = first; c != list.end() && (*c)->start <= r.end; ++c) {
      if ((*c)->end <= r.end) {
        inner += (*c)->end - (*c)->start;
        matched = true;
      }
    }
    if (matched) self.push_back(double(r.end - r.start) - double(inner));
  }
  return self;
}

bool WaitForIdle(const std::function<bool()>& idle,
                 std::chrono::milliseconds timeout,
                 std::chrono::milliseconds poll, int stable_polls) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int stable = 0;
  while (true) {
    stable = idle() ? stable + 1 : 0;
    if (stable >= stable_polls) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(poll);
  }
}

}  // namespace perfbench

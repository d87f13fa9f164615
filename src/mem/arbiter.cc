#include "mem/arbiter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace pmblade {
namespace mem {

namespace {

/// Fraction of the total budget moved per rebalance.
constexpr double kStepFraction = 0.05;
/// The winner's score must exceed the loser's by this factor.
constexpr double kHysteresis = 1.3;
/// Windows with fewer operations than this are skipped entirely.
constexpr uint64_t kMinOpsPerTick = 64;
/// EWMA weight of the newest marginal-gain observation.
constexpr double kGainEwmaAlpha = 0.5;

double Clamp01(double v) {
  if (v < 0.0) return 0.0;
  if (v > 1.0) return 1.0;
  return v;
}

ArbiterInputs Delta(const ArbiterInputs& now, const ArbiterInputs& prev) {
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  ArbiterInputs d;
  d.reads = sub(now.reads, prev.reads);
  d.reads_ssd_l1 = sub(now.reads_ssd_l1, prev.reads_ssd_l1);
  d.writes = sub(now.writes, prev.writes);
  d.cache_hits = sub(now.cache_hits, prev.cache_hits);
  d.cache_misses = sub(now.cache_misses, prev.cache_misses);
  d.bloom_checks = sub(now.bloom_checks, prev.bloom_checks);
  d.bloom_negatives = sub(now.bloom_negatives, prev.bloom_negatives);
  d.bloom_false_positives =
      sub(now.bloom_false_positives, prev.bloom_false_positives);
  d.flushes = sub(now.flushes, prev.flushes);
  d.slowdowns = sub(now.slowdowns, prev.slowdowns);
  d.stalls = sub(now.stalls, prev.stalls);
  return d;
}

}  // namespace

ArbiterInputs ReadArbiterInputs(const obs::MetricsRegistry& registry) {
  auto read = [&registry](const char* name) -> uint64_t {
    obs::MetricSample sample;
    return registry.Read(name, &sample) ? static_cast<uint64_t>(sample.value)
                                        : 0;
  };
  ArbiterInputs in;
  in.reads_ssd_l1 = read("pmblade.reads.ssd_l1");
  in.reads = read("pmblade.reads.memtable") + read("pmblade.reads.pm_l0") +
             in.reads_ssd_l1 + read("pmblade.reads.miss");
  in.writes = read("pmblade.writes");
  in.cache_hits = read("pmblade.blockcache.hits");
  in.cache_misses = read("pmblade.blockcache.misses");
  in.bloom_checks = read("pmblade.bloom.checks");
  in.bloom_negatives = read("pmblade.bloom.negatives");
  in.bloom_false_positives = read("pmblade.bloom.false_positives");
  in.flushes = read("pmblade.flush.count");
  in.slowdowns = read("pmblade.write.slowdowns");
  in.stalls = read("pmblade.write.stalls");
  return in;
}

MemoryArbiter::MemoryArbiter(const ArbiterOptions& options,
                             MemoryBudget* budget, InputsFn inputs_fn,
                             ApplyFn apply_fn)
    : opts_(options),
      budget_(budget),
      inputs_fn_(std::move(inputs_fn)),
      apply_fn_(std::move(apply_fn)) {
  if (opts_.clock == nullptr) opts_.clock = SystemClock();
  if (opts_.logger == nullptr) opts_.logger = NullLogger();
  if (opts_.interval_ms == 0) opts_.interval_ms = 1;
  if (opts_.metrics != nullptr) {
    tick_counter_ = opts_.metrics->GetCounter("pmblade.mem.ticks");
    rebalance_counter_ = opts_.metrics->GetCounter("pmblade.mem.rebalances");
    skipped_counter_ =
        opts_.metrics->GetCounter("pmblade.mem.skipped_ticks");
    // Targets as gauges: the budget outlives the registry by DBImpl's
    // declaration-order discipline.
    MemoryBudget* b = budget_;
    opts_.metrics->RegisterGaugeCallback(
        "pmblade.mem.budget_total",
        [b] { return static_cast<double>(b->total()); });
    opts_.metrics->RegisterGaugeCallback(
        "pmblade.mem.memtable_target",
        [b] { return static_cast<double>(b->target(kMemtable)); });
    opts_.metrics->RegisterGaugeCallback(
        "pmblade.mem.block_cache_target",
        [b] { return static_cast<double>(b->target(kBlockCache)); });
    opts_.metrics->RegisterGaugeCallback(
        "pmblade.mem.keep_set_target",
        [b] { return static_cast<double>(b->target(kKeepSet)); });
  }
}

MemoryArbiter::~MemoryArbiter() { Stop(); }

void MemoryArbiter::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { ThreadLoop(); });
  running_ = true;
}

void MemoryArbiter::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  running_ = false;
}

void MemoryArbiter::ThreadLoop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_requested_) {
    thread_cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms),
                        [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    RebalanceOnce();
    lock.lock();
  }
}

void MemoryArbiter::ScorePressures(const ArbiterInputs& d,
                                   double* out) const {
  const double ops = static_cast<double>(d.reads + d.writes);
  const double read_share = ops > 0.0 ? d.reads / ops : 0.0;
  const double write_share = ops > 0.0 ? d.writes / ops : 0.0;

  // Memtable: backpressure events per write. A stall is an order of
  // magnitude worse than a one-off slowdown; flush churn (rotations per
  // write) signals the quota is too small even before backpressure bites.
  double mem_rate = 0.0;
  if (d.writes > 0) {
    mem_rate = Clamp01(
        (static_cast<double>(d.slowdowns) + 10.0 * d.stalls +
         64.0 * d.flushes) /
        static_cast<double>(d.writes));
  }
  out[kMemtable] = write_share * mem_rate;

  // Block cache: miss ratio of the window's cache traffic.
  const uint64_t cache_ops = d.cache_hits + d.cache_misses;
  const double miss_ratio =
      cache_ops > 0 ? static_cast<double>(d.cache_misses) / cache_ops : 0.0;
  out[kBlockCache] = read_share * miss_ratio;

  // Keep set: fraction of reads that fell through to SSD level-1 — the
  // reads Eq. 3 retention on PM would have absorbed.
  const double ssd_rate =
      d.reads > 0 ? static_cast<double>(d.reads_ssd_l1) / d.reads : 0.0;
  out[kKeepSet] = read_share * ssd_rate;
}

bool MemoryArbiter::RebalanceOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  if (tick_counter_ != nullptr) tick_counter_->Inc();

  ArbiterInputs now = inputs_fn_();
  if (!has_last_inputs_) {
    last_inputs_ = now;
    has_last_inputs_ = true;
    return false;
  }
  ArbiterInputs d = Delta(now, last_inputs_);
  last_inputs_ = now;

  if (d.reads + d.writes < kMinOpsPerTick) {
    skipped_ticks_.fetch_add(1, std::memory_order_relaxed);
    if (skipped_counter_ != nullptr) skipped_counter_->Inc();
    return false;
  }

  double pressure[kNumComponents];
  ScorePressures(d, pressure);

  // Marginal utility: how much did the previous grant actually relieve its
  // component? Negative or zero gain decays that component's multiplier,
  // so budget stops flowing where it no longer buys anything.
  if (last_grant_ >= 0) {
    double gain = last_grant_pressure_ - pressure[last_grant_];
    ewma_gain_[last_grant_] = (1.0 - kGainEwmaAlpha) * ewma_gain_[last_grant_] +
                              kGainEwmaAlpha * gain;
    last_grant_ = -1;
  }

  double score[kNumComponents];
  for (int i = 0; i < kNumComponents; ++i) {
    last_pressure_[i] = pressure[i];
    // A component with a positive marginal-gain history bids its pressure
    // up (it responds to budget); a negative history bids it down.
    score[i] = pressure[i] * Clamp01(1.0 + ewma_gain_[i]);
  }

  int winner = 0, loser = 0;
  for (int i = 1; i < kNumComponents; ++i) {
    if (score[i] > score[winner]) winner = i;
  }
  // Loser: the lowest score among components with headroom above floor.
  loser = -1;
  for (int i = 0; i < kNumComponents; ++i) {
    if (i == winner) continue;
    if (budget_->target(i) <= budget_->floor(i)) continue;
    if (loser < 0 || score[i] < score[loser]) loser = i;
  }
  if (loser < 0) return false;

  // Hysteresis: a balanced system must not oscillate, and a dead-calm
  // system (everything near zero pressure) must not drift.
  if (score[winner] < 0.01 ||
      score[winner] <= kHysteresis * score[loser]) {
    return false;
  }

  uint64_t step = static_cast<uint64_t>(
      kStepFraction * static_cast<double>(budget_->total()));
  if (step == 0) step = 1;
  uint64_t moved = budget_->Transfer(loser, winner, step);
  if (moved == 0) return false;

  last_grant_ = winner;
  last_grant_pressure_ = pressure[winner];
  last_from_ = loser;
  last_to_ = winner;
  last_moved_bytes_ = moved;
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  if (rebalance_counter_ != nullptr) rebalance_counter_->Inc();

  apply_fn_(loser, budget_->target(loser));
  apply_fn_(winner, budget_->target(winner));

  if (opts_.events != nullptr && opts_.events->active()) {
    opts_.events->Emit(
        obs::Event(obs::EventType::kMemRebalance, opts_.clock->NowNanos())
            .With("from", static_cast<double>(loser))
            .With("to", static_cast<double>(winner))
            .With("bytes", static_cast<double>(moved))
            .With("p_memtable", pressure[kMemtable])
            .With("p_block_cache", pressure[kBlockCache])
            .With("p_keep_set", pressure[kKeepSet])
            .With("window_reads", static_cast<double>(d.reads))
            .With("window_writes", static_cast<double>(d.writes))
            .With("memtable_target",
                  static_cast<double>(budget_->target(kMemtable)))
            .With("block_cache_target",
                  static_cast<double>(budget_->target(kBlockCache)))
            .With("keep_set_target",
                  static_cast<double>(budget_->target(kKeepSet))));
  }
  PMBLADE_INFO(opts_.logger,
               "mem arbiter: %s -> %s (%llu B), pressures mem=%.3f "
               "cache=%.3f keep=%.3f",
               MemComponentName(loser), MemComponentName(winner),
               static_cast<unsigned long long>(moved), pressure[kMemtable],
               pressure[kBlockCache], pressure[kKeepSet]);
  return true;
}

std::string MemoryArbiter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  char buf[256];
  std::string out = "{\"enabled\":true,\"budget\":";
  out += budget_->ToJson();
  snprintf(buf, sizeof(buf),
           ",\"ticks\":%llu,\"rebalances\":%llu,\"skipped_ticks\":%llu",
           static_cast<unsigned long long>(
               ticks_.load(std::memory_order_relaxed)),
           static_cast<unsigned long long>(
               rebalances_.load(std::memory_order_relaxed)),
           static_cast<unsigned long long>(
               skipped_ticks_.load(std::memory_order_relaxed)));
  out += buf;
  snprintf(buf, sizeof(buf),
           ",\"pressures\":{\"memtable\":%.6f,\"block_cache\":%.6f,"
           "\"keep_set\":%.6f}",
           last_pressure_[kMemtable], last_pressure_[kBlockCache],
           last_pressure_[kKeepSet]);
  out += buf;
  snprintf(buf, sizeof(buf),
           ",\"gain_ewma\":{\"memtable\":%.6f,\"block_cache\":%.6f,"
           "\"keep_set\":%.6f}",
           ewma_gain_[kMemtable], ewma_gain_[kBlockCache],
           ewma_gain_[kKeepSet]);
  out += buf;
  if (last_to_ >= 0) {
    snprintf(buf, sizeof(buf),
             ",\"last_move\":{\"from\":\"%s\",\"to\":\"%s\",\"bytes\":%llu}",
             MemComponentName(last_from_), MemComponentName(last_to_),
             static_cast<unsigned long long>(last_moved_bytes_));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace mem
}  // namespace pmblade

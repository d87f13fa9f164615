// Structured event tracing: typed engine events (flush lifecycle, cost-model
// decisions with their Eq. 1/2/3 inputs, compaction stages, I/O-gate and
// SSD queue-depth transitions) fanned out through an EventBus to
// EventListeners, with a lock-striped ring-buffer TraceRecorder that keeps
// the most recent events and dumps them as JSON lines.
//
// Cost discipline: emitting sites guard on `bus->active()` so that with no
// listeners an event costs one relaxed atomic load; events themselves are
// flat structs of (static key, double) fields with an optional pre-rendered
// JSON `detail` payload for variable-size data (e.g. per-partition Eq. 3
// scores). No emission site sits on the Get/Put hot path.

#ifndef PMBLADE_OBS_EVENT_H_
#define PMBLADE_OBS_EVENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmblade {
namespace obs {

enum class EventType : uint8_t {
  kFlushBegin = 0,
  kFlushEnd,
  /// Eq. 1/Eq. 2 evaluation for one partition, with inputs and verdict.
  kInternalDecision,
  kInternalCompactionEnd,
  kMajorCompactionBegin,
  kMajorCompactionEnd,
  /// Eq. 3 keep-set selection; per-partition scores ride in `detail`.
  kKeepSetSelected,
  kWalSync,
  /// q_flush gate budget changed (coroutine flush scheduling).
  kIoGateChange,
  /// SSD model reached a new queue-depth high-water mark.
  kSsdQueueDepth,
  /// Algorithm-1 work enqueued to the background compaction scheduler.
  kCompactionQueued,
  /// A queued compaction job started running on the scheduler thread.
  kCompactionStart,
  /// A compaction job finished (fields: ok, duration_nanos, retries).
  kCompactionEnd,
  /// The memory arbiter moved budget between components; fields carry the
  /// decision (from/to/bytes), the observed pressures that drove it, and
  /// the post-move targets.
  kMemRebalance,
  /// Cross-shard two-phase commit: one event per WAL txn record appended
  /// by this shard (fields: txn_id, and for prepares the participant
  /// count / payload bytes).
  kTxnPrepare,
  kTxnCommit,
  kTxnRollback,
};

const char* EventTypeName(EventType type);

struct Event {
  static constexpr int kMaxFields = 12;

  struct Field {
    const char* key = nullptr;  // static string literal, JSON-safe
    double value = 0.0;
  };

  EventType type = EventType::kFlushBegin;
  uint64_t timestamp_nanos = 0;
  int num_fields = 0;
  Field fields[kMaxFields];
  /// Optional pre-rendered JSON value (object or array) attached under the
  /// "detail" key; empty = absent.
  std::string detail;

  Event() = default;
  Event(EventType t, uint64_t ts) : type(t), timestamp_nanos(ts) {}

  /// Appends a field; silently drops past kMaxFields. `key` must be a
  /// static, JSON-safe string literal.
  Event& With(const char* key, double value) {
    if (num_fields < kMaxFields) {
      fields[num_fields].key = key;
      fields[num_fields].value = value;
      ++num_fields;
    }
    return *this;
  }
  Event& WithDetail(std::string json) {
    detail = std::move(json);
    return *this;
  }

  /// Value of the named field, or `fallback` when absent.
  double FieldOr(const char* key, double fallback) const;

  /// One JSON object (single line, no trailing newline).
  std::string ToJson() const;
};

class EventListener {
 public:
  virtual ~EventListener() = default;
  virtual void OnEvent(const Event& event) = 0;
};

/// Fan-out hub. Listeners are invoked synchronously, in subscription order,
/// on the emitting thread. `active()` is a relaxed atomic check so that
/// emitting sites can skip building events entirely when nobody listens.
class EventBus {
 public:
  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  void Subscribe(EventListener* listener);
  void Unsubscribe(EventListener* listener);

  bool active() const {
    return num_listeners_.load(std::memory_order_relaxed) > 0;
  }

  void Emit(const Event& event);

  uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> num_listeners_{0};
  std::atomic<uint64_t> emitted_{0};
  mutable std::mutex mu_;
  std::vector<EventListener*> listeners_;
};

/// Keeps the last `capacity` events in a ring. Lock-striped: writers take
/// only the mutex of the slot their ticket hashes to, so concurrent
/// recording from compaction workers does not serialize globally. A slot
/// whose write lost the race to a newer ticket is simply skipped on read.
class TraceRecorder : public EventListener {
 public:
  explicit TraceRecorder(size_t capacity);

  void OnEvent(const Event& event) override;

  /// The retained events, oldest first.
  std::vector<Event> Snapshot() const;

  /// JSON-lines dump of Snapshot() (one event object per line).
  std::string DumpJsonLines() const;

  size_t capacity() const { return capacity_; }
  /// Total events ever recorded (>= capacity means the ring has wrapped).
  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t ticket = 0;
    bool filled = false;
    Event event;
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace obs
}  // namespace pmblade

#endif  // PMBLADE_OBS_EVENT_H_

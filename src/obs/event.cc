#include "obs/event.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace pmblade {
namespace obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kFlushBegin:
      return "flush_begin";
    case EventType::kFlushEnd:
      return "flush_end";
    case EventType::kInternalDecision:
      return "internal_decision";
    case EventType::kInternalCompactionEnd:
      return "internal_compaction_end";
    case EventType::kMajorCompactionBegin:
      return "major_compaction_begin";
    case EventType::kMajorCompactionEnd:
      return "major_compaction_end";
    case EventType::kKeepSetSelected:
      return "keep_set_selected";
    case EventType::kWalSync:
      return "wal_sync";
    case EventType::kIoGateChange:
      return "io_gate_change";
    case EventType::kSsdQueueDepth:
      return "ssd_queue_depth";
    case EventType::kCompactionQueued:
      return "compaction_queued";
    case EventType::kCompactionStart:
      return "compaction_start";
    case EventType::kCompactionEnd:
      return "compaction_end";
    case EventType::kMemRebalance:
      return "mem_rebalance";
    case EventType::kTxnPrepare:
      return "txn_prepare";
    case EventType::kTxnCommit:
      return "txn_commit";
    case EventType::kTxnRollback:
      return "txn_rollback";
  }
  return "unknown";
}

double Event::FieldOr(const char* key, double fallback) const {
  for (int i = 0; i < num_fields; ++i) {
    if (std::strcmp(fields[i].key, key) == 0) return fields[i].value;
  }
  return fallback;
}

namespace {

/// Appends a JSON number; integral values print without a fraction so
/// counters stay exact, and non-finite values degrade to null.
void AppendJsonNumber(std::string* out, double value) {
  char buf[48];
  if (!std::isfinite(value)) {
    out->append("null");
  } else if (value == std::floor(value) && std::fabs(value) < 1e18) {
    snprintf(buf, sizeof(buf), "%.0f", value);
    out->append(buf);
  } else {
    snprintf(buf, sizeof(buf), "%.17g", value);
    out->append(buf);
  }
}

}  // namespace

std::string Event::ToJson() const {
  std::string out;
  out.reserve(128 + detail.size());
  out += "{\"ts\":";
  AppendJsonNumber(&out, static_cast<double>(timestamp_nanos));
  out += ",\"type\":\"";
  out += EventTypeName(type);
  out += "\"";
  for (int i = 0; i < num_fields; ++i) {
    out += ",\"";
    out += fields[i].key;
    out += "\":";
    AppendJsonNumber(&out, fields[i].value);
  }
  if (!detail.empty()) {
    out += ",\"detail\":";
    out += detail;
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// EventBus
// ---------------------------------------------------------------------------

void EventBus::Subscribe(EventListener* listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.push_back(listener);
  num_listeners_.store(static_cast<int>(listeners_.size()),
                       std::memory_order_relaxed);
}

void EventBus::Unsubscribe(EventListener* listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
  num_listeners_.store(static_cast<int>(listeners_.size()),
                       std::memory_order_relaxed);
}

void EventBus::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (listeners_.empty()) return;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  for (EventListener* listener : listeners_) {
    listener->OnEvent(event);
  }
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity), slots_(new Slot[capacity_]) {}

void TraceRecorder::OnEvent(const Event& event) {
  uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  std::lock_guard<std::mutex> lock(slot.mu);
  // A newer ticket may already have claimed this slot (the ring lapped us
  // between the fetch_add and the lock); never go backwards.
  if (slot.filled && slot.ticket > ticket) return;
  slot.ticket = ticket;
  slot.filled = true;
  slot.event = event;
}

std::vector<Event> TraceRecorder::Snapshot() const {
  uint64_t end = next_.load(std::memory_order_relaxed);
  uint64_t start = end > capacity_ ? end - capacity_ : 0;
  std::vector<Event> out;
  out.reserve(static_cast<size_t>(end - start));
  for (uint64_t i = start; i < end; ++i) {
    const Slot& slot = slots_[i % capacity_];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.filled && slot.ticket == i) out.push_back(slot.event);
  }
  return out;
}

std::string TraceRecorder::DumpJsonLines() const {
  std::string out;
  for (const Event& event : Snapshot()) {
    out += event.ToJson();
    out += "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace pmblade

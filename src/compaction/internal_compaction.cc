#include "compaction/internal_compaction.h"

#include <memory>

#include "compaction/merging_iterator.h"
#include "compaction/version_retention.h"

namespace pmblade {

namespace {

/// The pipeline's stream: the merged records VersionRetention keeps, cut
/// into segments of about `target_bytes` of key and value bytes, one output
/// table each. Valid() ends a segment; StartSegment() opens the next one
/// where the last stopped. An unparseable key ends the stream with its
/// Corruption status.
class RetainedStream final : public Iterator {
 public:
  RetainedStream(Iterator* merged, VersionRetention retention,
                 uint64_t target_bytes)
      : base_(merged),
        retention_(std::move(retention)),
        target_bytes_(target_bytes) {
    base_->SeekToFirst();
    SkipDropped();
  }

  void StartSegment() { emitted_ = 0; }
  bool exhausted() const { return !status_.ok() || !base_->Valid(); }

  /// A segment holds at least one record, so every table is non-empty.
  bool Valid() const override {
    return !exhausted() && (emitted_ < target_bytes_ || emitted_ == 0);
  }
  void SeekToFirst() override {}  // positioned by the constructor
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override {
    emitted_ += base_->key().size() + base_->value().size();
    base_->Next();
    SkipDropped();
  }
  void Prev() override {}
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override {
    return status_.ok() ? base_->status() : status_;
  }

 private:
  void SkipDropped() {
    bool keep = false;
    for (; base_->Valid(); base_->Next()) {
      Status s = retention_.Decide(base_->key(), &keep);
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
      if (keep) return;
    }
  }

  Iterator* base_;
  VersionRetention retention_;
  uint64_t target_bytes_;
  uint64_t emitted_ = 0;
  Status status_;
};

}  // namespace

Status MergeToTables(const InternalCompactionOptions& options,
                     const InternalKeyComparator& icmp,
                     std::vector<Iterator*> inputs, L0TableFactory* factory,
                     std::vector<L0TableRef>* outputs) {
  outputs->clear();
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp, std::move(inputs)));
  RetainedStream stream(
      merged.get(),
      VersionRetention(icmp.user_comparator(), options.oldest_snapshot,
                       options.drop_tombstones),
      options.target_table_bytes);
  Status s;
  while (s.ok() && !stream.exhausted()) {
    stream.StartSegment();
    L0TableRef out;
    s = factory->BuildFrom(&stream, &out);
    if (out != nullptr) outputs->push_back(std::move(out));
  }
  if (s.ok()) s = stream.status();
  if (!s.ok()) {
    for (auto& table : *outputs) table->Destroy();
    outputs->clear();
  }
  return s;
}

Status RunInternalCompaction(const InternalCompactionOptions& options,
                             const InternalKeyComparator& icmp,
                             const std::vector<L0TableRef>& inputs,
                             L0TableFactory* factory,
                             std::vector<L0TableRef>* outputs,
                             InternalCompactionStats* stats) {
  *stats = InternalCompactionStats{};
  Clock* clock = options.clock != nullptr ? options.clock : SystemClock();
  const uint64_t start = clock->NowNanos();

  std::vector<Iterator*> children;
  children.reserve(inputs.size());
  for (const auto& table : inputs) {
    stats->input_tables++;
    stats->input_records += table->num_entries();
    stats->input_bytes += table->size_bytes();
    children.push_back(table->NewIterator());
  }
  PMBLADE_RETURN_IF_ERROR(
      MergeToTables(options, icmp, std::move(children), factory, outputs));
  for (const auto& out : *outputs) {
    stats->output_tables++;
    stats->output_records += out->num_entries();
    stats->output_bytes += out->size_bytes();
  }

  stats->duration_nanos = clock->NowNanos() - start;

  if (options.event_bus != nullptr && options.event_bus->active()) {
    options.event_bus->Emit(
        obs::Event(obs::EventType::kInternalCompactionEnd, clock->NowNanos())
            .With("partition", static_cast<double>(options.partition_id))
            .With("input_tables", static_cast<double>(stats->input_tables))
            .With("output_tables", static_cast<double>(stats->output_tables))
            .With("input_records", static_cast<double>(stats->input_records))
            .With("output_records",
                  static_cast<double>(stats->output_records))
            .With("input_bytes", static_cast<double>(stats->input_bytes))
            .With("output_bytes", static_cast<double>(stats->output_bytes))
            .With("duration_nanos",
                  static_cast<double>(stats->duration_nanos)));
  }
  return Status::OK();
}

}  // namespace pmblade

#include "core/version.h"

#include <algorithm>

#include "compaction/merging_iterator.h"
#include "env/ssd_model.h"

namespace pmblade {

namespace {

class RunIterator final : public Iterator {
 public:
  RunIterator(const InternalKeyComparator* icmp, std::vector<L0TableRef> run)
      : icmp_(icmp), run_(std::move(run)) {}

  bool Valid() const override {
    return table_iter_ != nullptr && table_iter_->Valid();
  }

  void SeekToFirst() override {
    index_ = 0;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    index_ = run_.empty() ? 0 : run_.size() - 1;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    // First table whose largest >= target.
    size_t lo = 0, hi = run_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (icmp_->Compare(run_[mid]->largest(), target) < 0) lo = mid + 1;
      else hi = mid;
    }
    index_ = lo;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    table_iter_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    table_iter_->Prev();
    SkipEmptyBackward();
  }

  Slice key() const override { return table_iter_->key(); }
  Slice value() const override { return table_iter_->value(); }
  Status status() const override {
    if (table_iter_ != nullptr) return table_iter_->status();
    return status_;
  }

 private:
  void InitTableIter() {
    if (index_ < run_.size()) {
      table_iter_.reset(run_[index_]->NewIterator());
    } else {
      table_iter_.reset();
    }
  }

  void SkipEmptyForward() {
    while (table_iter_ != nullptr && !table_iter_->Valid()) {
      if (!table_iter_->status().ok()) {
        status_ = table_iter_->status();
        table_iter_.reset();
        return;
      }
      ++index_;
      InitTableIter();
      if (table_iter_ != nullptr) table_iter_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (table_iter_ != nullptr && !table_iter_->Valid()) {
      if (!table_iter_->status().ok()) {
        status_ = table_iter_->status();
        table_iter_.reset();
        return;
      }
      if (index_ == 0) {
        table_iter_.reset();
        return;
      }
      --index_;
      InitTableIter();
      if (table_iter_ != nullptr) table_iter_->SeekToLast();
    }
  }

  const InternalKeyComparator* icmp_;
  std::vector<L0TableRef> run_;
  size_t index_ = 0;
  std::unique_ptr<Iterator> table_iter_;
  Status status_;
};

/// Concatenates the merged views of range-disjoint partitions, opening a
/// partition's tables only while the cursor is inside it.
class PartitionConcatIterator final : public Iterator {
 public:
  PartitionConcatIterator(const InternalKeyComparator* icmp,
                          std::vector<PartitionTables> parts)
      : icmp_(icmp), parts_(std::move(parts)) {}

  bool Valid() const override {
    return current_ != nullptr && current_->Valid();
  }
  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }
  Status status() const override {
    if (current_ != nullptr && !current_->status().ok()) {
      return current_->status();
    }
    return status_;
  }

  void SeekToFirst() override {
    index_ = 0;
    OpenCurrent();
    if (current_ != nullptr) current_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    index_ = parts_.empty() ? 0 : parts_.size() - 1;
    OpenCurrent();
    if (current_ != nullptr) current_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    // Partition containing (or after) the target's user key.
    Slice user = ExtractUserKey(target);
    size_t lo = 0, hi = parts_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      const std::string& end = parts_[mid].first;
      if (!end.empty() && user.compare(Slice(end)) >= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    index_ = lo;
    OpenCurrent();
    if (current_ != nullptr) current_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    current_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    current_->Prev();
    SkipEmptyBackward();
  }

 private:
  void OpenCurrent() {
    if (index_ >= parts_.size()) {
      current_.reset();
      return;
    }
    current_.reset(parts_[index_].second->NewIterator(icmp_));
  }

  void SkipEmptyForward() {
    while (current_ != nullptr && !current_->Valid()) {
      if (!current_->status().ok()) {
        status_ = current_->status();
        current_.reset();
        return;
      }
      if (index_ + 1 >= parts_.size()) {
        current_.reset();
        return;
      }
      ++index_;
      OpenCurrent();
      if (current_ != nullptr) current_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (current_ != nullptr && !current_->Valid()) {
      if (!current_->status().ok()) {
        status_ = current_->status();
        current_.reset();
        return;
      }
      if (index_ == 0) {
        current_.reset();
        return;
      }
      --index_;
      OpenCurrent();
      if (current_ != nullptr) current_->SeekToLast();
    }
  }

  const InternalKeyComparator* icmp_;
  std::vector<PartitionTables> parts_;
  size_t index_ = 0;
  std::unique_ptr<Iterator> current_;
  Status status_;
};

}  // namespace

Iterator* NewPartitionConcatIterator(const InternalKeyComparator* icmp,
                                     std::vector<PartitionTables> parts) {
  return new PartitionConcatIterator(icmp, std::move(parts));
}

Iterator* NewRunIterator(const InternalKeyComparator* icmp,
                         std::vector<L0TableRef> run) {
  if (run.empty()) return NewEmptyIterator();
  if (run.size() == 1) return run[0]->NewIterator();
  return new RunIterator(icmp, std::move(run));
}

Status RunGet(const std::vector<L0TableRef>& run,
              const InternalKeyComparator& icmp, const LookupKey& lkey,
              std::string* value, bool* found, Status* result_status,
              ReadProbeStats* probe) {
  *found = false;
  if (run.empty()) return Status::OK();
  // First table whose largest user key >= probe.
  const Comparator* ucmp = icmp.user_comparator();
  size_t lo = 0, hi = run.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (ucmp->Compare(ExtractUserKey(run[mid]->largest()), lkey.user_key()) <
        0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == run.size()) return Status::OK();
  return L0TableGet(*run[lo], icmp, lkey, value, found, result_status, probe);
}

uint64_t TableSet::L0Bytes() const {
  uint64_t total = 0;
  for (const auto& table : unsorted) total += table->size_bytes();
  for (const auto& table : sorted_run) total += table->size_bytes();
  return total;
}

uint64_t TableSet::L0DramBytes() const {
  uint64_t total = 0;
  for (const auto& table : unsorted) total += table->dram_bytes();
  for (const auto& table : sorted_run) total += table->dram_bytes();
  return total;
}

uint64_t TableSet::SsdBytes() const {
  uint64_t total = 0;
  for (const SsdRun& run : ssd_runs) total += run.bytes();
  return total;
}

Status TableSet::Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
                     SsdModel* level0_io, SsdModel* ssd_io,
                     std::string* value, Status* result_status,
                     ReadSource* source, ReadProbeStats* probe) const {
  *source = ReadSource::kNotFound;
  bool found = false;
  {
    ScopedExternalIo io(level0_io, IoClass::kClient);
    for (const auto& table : unsorted) {
      PMBLADE_RETURN_IF_ERROR(L0TableGet(*table, icmp, lkey, value, &found,
                                         result_status, probe));
      if (found) break;
    }
    if (!found) {
      PMBLADE_RETURN_IF_ERROR(
          RunGet(sorted_run, icmp, lkey, value, &found, result_status, probe));
    }
  }
  if (found) {
    *source = ReadSource::kPmLevel0;
    return Status::OK();
  }
  if (ssd_runs.empty()) return Status::OK();
  // The first run holding any version of the key is authoritative.
  ScopedExternalIo io(ssd_io, IoClass::kClient);
  for (const SsdRun& run : ssd_runs) {
    PMBLADE_RETURN_IF_ERROR(
        RunGet(run.tables, icmp, lkey, value, &found, result_status, probe));
    if (found) {
      *source = ReadSource::kSsdLevel1;
      break;
    }
  }
  return Status::OK();
}

Iterator* TableSet::NewIterator(const InternalKeyComparator* icmp,
                                bool include_l0, size_t run_begin,
                                size_t run_end) const {
  // Newest first, as Get probes; the merge itself orders duplicates by
  // sequence number.
  std::vector<Iterator*> children;
  if (include_l0) {
    for (const auto& table : unsorted) children.push_back(table->NewIterator());
    if (!sorted_run.empty()) {
      children.push_back(NewRunIterator(icmp, sorted_run));
    }
  }
  run_end = std::min(run_end, ssd_runs.size());
  for (size_t r = run_begin; r < run_end; ++r) {
    if (!ssd_runs[r].tables.empty()) {
      children.push_back(NewRunIterator(icmp, ssd_runs[r].tables));
    }
  }
  return NewMergingIterator(icmp, std::move(children));
}

void RemoveTables(std::vector<L0TableRef>* from,
                  const std::vector<L0TableRef>& doomed) {
  from->erase(std::remove_if(from->begin(), from->end(),
                             [&doomed](const L0TableRef& table) {
                               for (const auto& d : doomed) {
                                 if (d.get() == table.get()) return true;
                               }
                               return false;
                             }),
              from->end());
}

}  // namespace pmblade

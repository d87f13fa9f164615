#include "baseline/leveled_store.h"

#include <cmath>

#include "compaction/merging_iterator.h"

namespace pmblade {

LeveledStore::LeveledStore(const LeveledStoreOptions& options,
                           const InternalKeyComparator* icmp,
                           L0TableFactory* factory)
    : options_(options), icmp_(icmp), factory_(factory) {
  levels_.resize(options_.max_levels);
  compact_cursor_.resize(options_.max_levels, 0);
}

uint64_t LeveledStore::TargetBytes(int level) const {
  // level is 0-based into levels_ (0 == L1).
  return static_cast<uint64_t>(
      options_.level1_target_bytes *
      std::pow(options_.level_multiplier, level));
}

uint64_t LeveledStore::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& table : levels_[level]) total += table->size_bytes();
  return total;
}

uint64_t LeveledStore::TotalBytes() const {
  uint64_t total = 0;
  for (int level = 0; level < NumLevels(); ++level) {
    total += LevelBytes(level);
  }
  return total;
}

InternalCompactionOptions LeveledStore::MergeOptions(
    int output_level, SequenceNumber oldest_snapshot) const {
  InternalCompactionOptions merge;
  merge.target_table_bytes = options_.target_file_bytes;
  merge.oldest_snapshot = oldest_snapshot;
  // Tombstones go only where nothing older can lie below the output.
  merge.drop_tombstones = true;
  for (int level = output_level + 1; level < NumLevels(); ++level) {
    if (!levels_[level].empty()) merge.drop_tombstones = false;
  }
  return merge;
}

Status LeveledStore::MergeIntoLevel1(std::vector<Iterator*> inputs,
                                     SequenceNumber oldest_snapshot) {
  // New data is newer than everything already in L1.
  std::vector<L0TableRef> old_l1 = levels_[0];
  inputs.push_back(NewRunIterator(icmp_, old_l1));

  std::vector<L0TableRef> outputs;
  PMBLADE_RETURN_IF_ERROR(MergeToTables(MergeOptions(0, oldest_snapshot),
                                        *icmp_, std::move(inputs), factory_,
                                        &outputs));
  levels_[0] = std::move(outputs);
  for (auto& table : old_l1) table->Destroy();

  return CascadeCompactions(oldest_snapshot);
}

Status LeveledStore::CascadeCompactions(SequenceNumber oldest_snapshot) {
  for (int level = 0; level + 1 < NumLevels(); ++level) {
    while (LevelBytes(level) > TargetBytes(level)) {
      PMBLADE_RETURN_IF_ERROR(CompactLevel(level, oldest_snapshot));
    }
  }
  return Status::OK();
}

Status LeveledStore::CompactLevel(int level, SequenceNumber oldest_snapshot) {
  if (levels_[level].empty()) return Status::OK();

  // Round-robin pick one file from `level`, plus all overlapping files in
  // level+1.
  size_t pick = compact_cursor_[level] % levels_[level].size();
  compact_cursor_[level] = pick + 1;
  L0TableRef input = levels_[level][pick];

  std::vector<L0TableRef> overlapping;
  std::vector<L0TableRef> next_keep;
  const Comparator* ucmp = icmp_->user_comparator();
  for (const auto& table : levels_[level + 1]) {
    bool overlaps =
        ucmp->Compare(ExtractUserKey(table->largest()),
                      ExtractUserKey(input->smallest())) >= 0 &&
        ucmp->Compare(ExtractUserKey(table->smallest()),
                      ExtractUserKey(input->largest())) <= 0;
    if (overlaps) {
      overlapping.push_back(table);
    } else {
      next_keep.push_back(table);
    }
  }

  std::vector<Iterator*> inputs = {input->NewIterator()};
  for (const auto& table : overlapping) inputs.push_back(table->NewIterator());
  std::vector<L0TableRef> outputs;
  PMBLADE_RETURN_IF_ERROR(MergeToTables(MergeOptions(level + 1,
                                                     oldest_snapshot),
                                        *icmp_, std::move(inputs), factory_,
                                        &outputs));

  // Remove the input from `level`.
  std::vector<L0TableRef> level_keep;
  for (const auto& table : levels_[level]) {
    if (table->id() != input->id()) level_keep.push_back(table);
  }
  levels_[level] = std::move(level_keep);

  // Merge outputs into level+1's run, keeping key order (outputs span the
  // input range, disjoint from next_keep).
  std::vector<L0TableRef> new_next;
  size_t out_idx = 0;
  for (const auto& table : next_keep) {
    while (out_idx < outputs.size() &&
           ucmp->Compare(ExtractUserKey(outputs[out_idx]->smallest()),
                         ExtractUserKey(table->smallest())) < 0) {
      new_next.push_back(outputs[out_idx++]);
    }
    new_next.push_back(table);
  }
  while (out_idx < outputs.size()) new_next.push_back(outputs[out_idx++]);
  levels_[level + 1] = std::move(new_next);

  input->Destroy();
  for (auto& table : overlapping) table->Destroy();
  return Status::OK();
}

Status LeveledStore::Get(const LookupKey& lkey, std::string* value,
                         bool* found, Status* result_status) const {
  *found = false;
  for (const auto& run : levels_) {
    PMBLADE_RETURN_IF_ERROR(
        RunGet(run, *icmp_, lkey, value, found, result_status));
    if (*found) return Status::OK();
  }
  return Status::OK();
}

void LeveledStore::AppendIterators(std::vector<Iterator*>* children) const {
  for (const auto& run : levels_) {
    if (!run.empty()) {
      children->push_back(NewRunIterator(icmp_, run));
    }
  }
}

}  // namespace pmblade

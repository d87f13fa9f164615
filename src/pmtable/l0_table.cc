#include "pmtable/l0_table.h"

#include <cstring>
#include <vector>

#include "pm/pm_pool.h"
#include "util/bloom.h"

namespace pmblade {

bool L0Table::MayContain(const LookupKey& lkey) const {
  if (filter_.empty() || filter_policy_ == nullptr) return true;
  return filter_policy_->KeyMayMatch(lkey.user_key(), Slice(filter_));
}

void L0Table::InstallFilter(const BloomFilterPolicy* policy,
                            std::string filter) {
  filter_policy_ = policy;
  filter_ = std::move(filter);
}

void L0Table::BuildFilter(const BloomFilterPolicy* policy) {
  if (policy == nullptr) return;
  FilterCollector collector(policy);
  if (CollectKeys(&collector)) collector.InstallOn(this);
}

bool L0Table::CollectKeys(FilterCollector* collector) const {
  std::unique_ptr<Iterator> it(NewIterator());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    collector->Observe(it->key());
  }
  return it->status().ok();
}

void FilterCollector::Observe(const Slice& internal_key) {
  if (policy_ == nullptr) return;
  const Slice user = ExtractUserKey(internal_key);
  if (hashes_.empty() || user != Slice(last_user_key_)) {
    last_user_key_.assign(user.data(), user.size());
    hashes_.push_back(BloomFilterPolicy::BloomHash(user));
  }
}

void FilterCollector::InstallOn(L0Table* table) {
  if (policy_ == nullptr || hashes_.empty()) return;
  std::string filter;
  policy_->CreateFilterFromHashes(hashes_, &filter);
  table->InstallFilter(policy_, std::move(filter));
}

Status L0Table::Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
                    std::string* value, GetResult* result) const {
  *result = GetResult::kAbsent;
  std::unique_ptr<Iterator> it(NewIterator());
  it->Seek(lkey.internal_key());
  if (!it->Valid()) return it->status();

  ParsedInternalKey parsed;
  if (!ParseInternalKey(it->key(), &parsed)) {
    return Status::Corruption("l0 table: malformed internal key");
  }
  if (icmp.user_comparator()->Compare(parsed.user_key, lkey.user_key()) !=
      0) {
    return it->status();  // different user key: not present here
  }
  if (parsed.type == kTypeDeletion) {
    *result = GetResult::kDeletion;
  } else {
    *result = GetResult::kValue;
    value->assign(it->value().data(), it->value().size());
  }
  return it->status();
}

Status LandTableObject(PmPool* pool, uint32_t kind,
                       std::initializer_list<Slice> parts, uint64_t* id) {
  uint64_t total = 0;
  for (const Slice& part : parts) total += part.size();
  PmPool::ObjectInfo info;
  char* dst = nullptr;
  PMBLADE_RETURN_IF_ERROR(pool->Allocate(total, kind, &info, &dst));
  char* p = dst;
  for (const Slice& part : parts) {
    memcpy(p, part.data(), part.size());
    p += part.size();
  }
  pool->InjectWrite(total);
  pool->Persist(dst, total);
  *id = info.id;
  return Status::OK();
}

Status L0TableGet(const L0Table& table, const InternalKeyComparator& icmp,
                  const LookupKey& lkey, std::string* value, bool* found,
                  Status* result_status, ReadProbeStats* probe) {
  *found = false;
  // Fast range rejection on the cached boundaries.
  const Comparator* ucmp = icmp.user_comparator();
  if (table.num_entries() == 0) return Status::OK();
  if (ucmp->Compare(lkey.user_key(), ExtractUserKey(table.smallest())) < 0 ||
      ucmp->Compare(lkey.user_key(), ExtractUserKey(table.largest())) > 0) {
    return Status::OK();
  }
  if (probe != nullptr) ++probe->tables_probed;

  // Bloom rejection before any PM scan or SSD block read.
  const bool filtered = table.HasFilter();
  if (filtered && probe != nullptr) ++probe->bloom_checks;
  L0Table::GetResult result = L0Table::GetResult::kFiltered;
  Status s;
  if (table.MayContain(lkey)) s = table.Get(icmp, lkey, value, &result);

  switch (result) {
    case L0Table::GetResult::kFiltered:
      if (probe != nullptr) ++probe->bloom_negatives;
      break;
    case L0Table::GetResult::kAbsent:
      if (filtered && probe != nullptr) ++probe->bloom_false_positives;
      break;
    case L0Table::GetResult::kValue:
      *found = true;
      *result_status = Status::OK();
      break;
    case L0Table::GetResult::kDeletion:
      *found = true;
      *result_status = Status::NotFound();
      break;
  }
  return s;
}

}  // namespace pmblade

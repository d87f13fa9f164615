#include "baseline/baseline_db.h"

#include <algorithm>

#include "compaction/merging_iterator.h"
#include "core/version.h"
#include "env/filename.h"

namespace pmblade {

namespace {

constexpr size_t kBlockSize = 4096;
constexpr int kBloomBitsPerKey = 10;

}  // namespace

Status BaselineDb::Open(const BaselineOptions& options,
                        const std::string& dbname,
                        std::unique_ptr<BaselineDb>* db) {
  db->reset();
  std::unique_ptr<BaselineDb> impl(new BaselineDb(options, dbname));
  PMBLADE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

BaselineDb::BaselineDb(const BaselineOptions& options,
                       const std::string& dbname)
    : options_(options), dbname_(dbname), icmp_(BytewiseComparator()) {}

BaselineDb::~BaselineDb() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_file_ != nullptr) wal_file_->Close();
  if (mem_ != nullptr) mem_->Unref();
}

Status BaselineDb::Init() {
  env_ = options_.env != nullptr ? options_.env : PosixEnv();
  clock_ = options_.clock != nullptr ? options_.clock : SystemClock();
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));

  filter_policy_.reset(new BloomFilterPolicy(kBloomBitsPerKey));
  block_cache_.reset(new BlockCache(options_.block_cache_bytes));

  if (options_.pm_budget_bytes > 0) {
    PmPoolOptions popts;
    popts.capacity = options_.pm_pool_capacity;
    popts.latency = options_.pm_latency;
    popts.clock = clock_;
    PMBLADE_RETURN_IF_ERROR(PmPool::Open(dbname_ + "/pool.pm", popts, &pool_));
    pool_->RegisterMetrics(&metrics_);

    L0FactoryOptions row_opts;
    row_opts.layout = L0Layout::kArrayTable;
    row_opts.icmp = &icmp_;
    row_factory_.reset(new L0TableFactory(row_opts, pool_.get(), env_));
  }

  L0FactoryOptions sst_opts;
  sst_opts.layout = L0Layout::kSstable;
  sst_opts.icmp = &icmp_;
  sst_opts.filter_policy = filter_policy_.get();
  sst_opts.block_cache = block_cache_.get();
  sst_opts.block_size = kBlockSize;
  sst_opts.ssd_dir = dbname_;
  sst_factory_.reset(new L0TableFactory(sst_opts, pool_.get(), env_));

  store_.reset(new LeveledStore(options_.levels, &icmp_, sst_factory_.get()));

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  wal_number_ = sst_factory_->NextFileNumber();
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, wal_number_), &wal_file_));
  wal_.reset(new wal::Writer(wal_file_.get()));
  return Status::OK();
}

uint64_t BaselineDb::l0_bytes() const {
  uint64_t total = 0;
  for (const auto& table : l0_) total += table->size_bytes();
  return total;
}

Status BaselineDb::Put(const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(&batch);
}

Status BaselineDb::Delete(const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(&batch);
}

Status BaselineDb::Write(WriteBatch* batch) {
  const uint64_t start = clock_->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    PMBLADE_RETURN_IF_ERROR(FlushLocked());
  }
  batch->SetSequence(last_sequence_ + 1);
  last_sequence_ += batch->Count();
  PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(batch->rep()));
  PMBLADE_RETURN_IF_ERROR(batch->InsertInto(mem_));
  stats_.RecordWrite(batch->ApproximateSize(), clock_->NowNanos() - start);
  return Status::OK();
}

Status BaselineDb::Get(const Slice& key, std::string* value) {
  const uint64_t start = clock_->NowNanos();
  MemTable* mem;
  std::vector<L0TableRef> l0;
  SequenceNumber snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = last_sequence_;
    mem = mem_;
    mem->Ref();
    l0 = l0_;
  }
  LookupKey lkey(key, snapshot);
  Status result = Status::NotFound();
  ReadSource source = ReadSource::kNotFound;
  bool answered = false;
  std::string local;
  Status probe;

  if (mem->Get(lkey, &local, &probe)) {
    answered = true;
    source = ReadSource::kMemtable;
    result = probe;
  }
  if (!answered) {
    for (const auto& table : l0) {
      bool found = false;
      Status s = L0TableGet(*table, icmp_, lkey, &local, &found, &probe);
      if (!s.ok()) {
        mem->Unref();
        return s;
      }
      if (found) {
        answered = true;
        source = pool_ != nullptr ? ReadSource::kPmLevel0
                                  : ReadSource::kSsdLevel1;
        result = probe;
        break;
      }
    }
  }
  if (!answered) {
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    Status s = store_->Get(lkey, &local, &found, &probe);
    if (!s.ok()) {
      mem->Unref();
      return s;
    }
    if (found) {
      answered = true;
      source = ReadSource::kSsdLevel1;
      result = probe;
    }
  }
  mem->Unref();

  if (answered && result.ok()) {
    value->swap(local);
  } else {
    result = Status::NotFound();
    source = answered ? ReadSource::kNotFound : source;
  }
  stats_.RecordRead(source, clock_->NowNanos() - start);
  return result;
}

Iterator* BaselineDb::NewScanIterator() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Iterator*> children;
  children.push_back(mem_->NewIterator());
  for (const auto& table : l0_) children.push_back(table->NewIterator());
  store_->AppendIterators(&children);
  Iterator* merged = NewMergingIterator(&icmp_, std::move(children));
  return NewUserIterator(merged, &icmp_, last_sequence_);
}

Status BaselineDb::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status BaselineDb::FlushLocked() {
  if (mem_->num_entries() == 0) return Status::OK();

  std::unique_ptr<Iterator> it(mem_->NewIterator());
  it->SeekToFirst();
  L0TableFactory* factory =
      row_factory_ != nullptr ? row_factory_.get() : sst_factory_.get();
  L0TableRef table;
  PMBLADE_RETURN_IF_ERROR(factory->BuildFrom(it.get(), &table));
  it.reset();
  if (table != nullptr) {
    l0_.insert(l0_.begin(), std::move(table));  // newest first
  }
  mem_->Unref();
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  stats_.AddFlush();

  // Fresh WAL; the old one is obsolete once the flush landed.
  uint64_t old = wal_number_;
  wal_number_ = sst_factory_->NextFileNumber();
  std::unique_ptr<WritableFile> file;
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, wal_number_), &file));
  wal_file_->Close();
  wal_file_ = std::move(file);
  wal_.reset(new wal::Writer(wal_file_.get()));
  env_->RemoveFile(WalFileName(dbname_, old));

  while (!l0_.empty() && (pool_ != nullptr
                              ? l0_bytes() > options_.pm_budget_bytes
                              : l0_.size() >= kL0FileTrigger)) {
    PMBLADE_RETURN_IF_ERROR(EvictL0Locked());
  }
  return Status::OK();
}

Status BaselineDb::EvictL0Locked() {
  const uint64_t quota = pool_ != nullptr
                             ? std::max<uint64_t>(l0_bytes() / kColumns, 1)
                             : UINT64_MAX;
  // The victims are l0_[keep..], the oldest tables.
  size_t keep = l0_.size();
  std::vector<Iterator*> inputs;
  uint64_t taken = 0;
  while (keep > 0 && taken < quota) {
    --keep;
    taken += l0_[keep]->size_bytes();
    inputs.push_back(l0_[keep]->NewIterator());
  }
  PMBLADE_RETURN_IF_ERROR(
      store_->MergeIntoLevel1(std::move(inputs), kMaxSequenceNumber));
  for (size_t i = keep; i < l0_.size(); ++i) l0_[i]->Destroy();
  l0_.resize(keep);
  stats_.AddMajorCompaction(0);
  return Status::OK();
}

Status BaselineDb::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  PMBLADE_RETURN_IF_ERROR(FlushLocked());
  while (!l0_.empty()) {
    PMBLADE_RETURN_IF_ERROR(EvictL0Locked());
  }
  return Status::OK();
}

}  // namespace pmblade

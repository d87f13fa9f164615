#include "baseline/leveled_db.h"

#include "compaction/merging_iterator.h"
#include "core/version.h"
#include "env/filename.h"
#include "memtable/write_batch.h"

namespace pmblade {

Status LeveledDb::Open(const LeveledDbOptions& options,
                       const std::string& dbname,
                       std::unique_ptr<LeveledDb>* db) {
  db->reset();
  std::unique_ptr<LeveledDb> impl(new LeveledDb(options, dbname));
  PMBLADE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

LeveledDb::LeveledDb(const LeveledDbOptions& options,
                     const std::string& dbname)
    : options_(options), dbname_(dbname), icmp_(BytewiseComparator()) {}

LeveledDb::~LeveledDb() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_file_ != nullptr) wal_file_->Close();
  if (mem_ != nullptr) mem_->Unref();
}

Status LeveledDb::Init() {
  env_ = options_.env != nullptr ? options_.env : PosixEnv();
  clock_ = options_.clock != nullptr ? options_.clock : SystemClock();
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));

  filter_policy_.reset(new BloomFilterPolicy(options_.bloom_bits_per_key));
  block_cache_.reset(new BlockCache(options_.block_cache_bytes));

  L0FactoryOptions fopts;
  fopts.layout = L0Layout::kSstable;
  fopts.icmp = &icmp_;
  fopts.filter_policy = filter_policy_.get();
  fopts.block_cache = block_cache_.get();
  fopts.block_size = options_.block_size;
  fopts.ssd_dir = dbname_;
  factory_.reset(new L0TableFactory(fopts, nullptr, env_));

  store_.reset(new LeveledStore(options_.levels, &icmp_, factory_.get()));

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  wal_number_ = factory_->NextFileNumber();
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, wal_number_), &wal_file_));
  wal_.reset(new wal::Writer(wal_file_.get()));
  return Status::OK();
}

Status LeveledDb::Put(const Slice& key, const Slice& value) {
  const uint64_t start = clock_->NowNanos();
  WriteBatch batch;
  batch.Put(key, value);
  std::lock_guard<std::mutex> lock(mu_);
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    PMBLADE_RETURN_IF_ERROR(FlushLocked());
  }
  batch.SetSequence(last_sequence_ + 1);
  last_sequence_ += batch.Count();
  PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(batch.rep()));
  PMBLADE_RETURN_IF_ERROR(batch.InsertInto(mem_));
  stats_.RecordWrite(batch.ApproximateSize(), clock_->NowNanos() - start);
  return Status::OK();
}

Status LeveledDb::Delete(const Slice& key) {
  const uint64_t start = clock_->NowNanos();
  WriteBatch batch;
  batch.Delete(key);
  std::lock_guard<std::mutex> lock(mu_);
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    PMBLADE_RETURN_IF_ERROR(FlushLocked());
  }
  batch.SetSequence(last_sequence_ + 1);
  last_sequence_ += batch.Count();
  PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(batch.rep()));
  PMBLADE_RETURN_IF_ERROR(batch.InsertInto(mem_));
  stats_.RecordWrite(batch.ApproximateSize(), clock_->NowNanos() - start);
  return Status::OK();
}

Status LeveledDb::Get(const Slice& key, std::string* value) {
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
        source = ReadSource::kSsdLevel1;  // L0 is on the SSD here
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

Iterator* LeveledDb::NewScanIterator() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Iterator*> children;
  children.push_back(mem_->NewIterator());
  for (const auto& table : l0_) children.push_back(table->NewIterator());
  store_->AppendIterators(&children);
  Iterator* merged = NewMergingIterator(&icmp_, std::move(children));
  return NewUserIterator(merged, &icmp_, last_sequence_);
}

Status LeveledDb::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status LeveledDb::FlushLocked() {
  if (mem_->num_entries() == 0) return Status::OK();

  std::unique_ptr<Iterator> it(mem_->NewIterator());
  it->SeekToFirst();
  L0TableRef table;
  PMBLADE_RETURN_IF_ERROR(factory_->BuildFrom(it.get(), &table));
  it.reset();
  if (table != nullptr) {
    l0_.insert(l0_.begin(), std::move(table));  // newest first
  }
  mem_->Unref();
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  stats_.AddFlush();

  // Fresh WAL; old one is obsolete once the flush landed.
  uint64_t old = wal_number_;
  wal_number_ = factory_->NextFileNumber();
  std::unique_ptr<WritableFile> file;
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, wal_number_), &file));
  wal_file_->Close();
  wal_file_ = std::move(file);
  wal_.reset(new wal::Writer(wal_file_.get()));
  env_->RemoveFile(WalFileName(dbname_, old));

  if (l0_.size() >= options_.l0_compaction_trigger) {
    PMBLADE_RETURN_IF_ERROR(CompactL0Locked());
  }
  return Status::OK();
}

Status LeveledDb::CompactL0Locked() {
  if (l0_.empty()) return Status::OK();
  std::vector<Iterator*> inputs;
  for (const auto& table : l0_) inputs.push_back(table->NewIterator());
  Status s = store_->MergeIntoLevel1(std::move(inputs), kMaxSequenceNumber);
  if (!s.ok()) return s;
  for (auto& table : l0_) table->Destroy();
  l0_.clear();
  stats_.AddMajorCompaction(0);
  return Status::OK();
}

Status LeveledDb::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  PMBLADE_RETURN_IF_ERROR(FlushLocked());
  return CompactL0Locked();
}

}  // namespace pmblade

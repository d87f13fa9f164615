#include "baseline/matrixkv_db.h"

#include "compaction/merging_iterator.h"
#include "core/version.h"
#include "env/filename.h"
#include "memtable/write_batch.h"

namespace pmblade {

Status MatrixKvDb::Open(const MatrixKvOptions& options,
                        const std::string& dbname,
                        std::unique_ptr<MatrixKvDb>* db) {
  db->reset();
  std::unique_ptr<MatrixKvDb> impl(new MatrixKvDb(options, dbname));
  PMBLADE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

MatrixKvDb::MatrixKvDb(const MatrixKvOptions& options,
                       const std::string& dbname)
    : options_(options), dbname_(dbname), icmp_(BytewiseComparator()) {}

MatrixKvDb::~MatrixKvDb() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_file_ != nullptr) wal_file_->Close();
  if (mem_ != nullptr) mem_->Unref();
}

Status MatrixKvDb::Init() {
  env_ = options_.env != nullptr ? options_.env : PosixEnv();
  clock_ = options_.clock != nullptr ? options_.clock : SystemClock();
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));

  filter_policy_.reset(new BloomFilterPolicy(options_.bloom_bits_per_key));
  block_cache_.reset(new BlockCache(options_.block_cache_bytes));

  std::string pool_path = options_.pm_pool_path.empty()
                              ? dbname_ + "/pool.pm"
                              : options_.pm_pool_path;
  PmPoolOptions popts;
  popts.capacity = options_.pm_pool_capacity;
  popts.latency = options_.pm_latency;
  popts.clock = clock_;
  PMBLADE_RETURN_IF_ERROR(PmPool::Open(pool_path, popts, &pool_));

  L0FactoryOptions row_opts;
  row_opts.layout = L0Layout::kArrayTable;
  row_opts.icmp = &icmp_;
  row_factory_.reset(new L0TableFactory(row_opts, pool_.get(), env_));

  L0FactoryOptions sst_opts;
  sst_opts.layout = L0Layout::kSstable;
  sst_opts.icmp = &icmp_;
  sst_opts.filter_policy = filter_policy_.get();
  sst_opts.block_cache = block_cache_.get();
  sst_opts.block_size = options_.block_size;
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

uint64_t MatrixKvDb::matrix_bytes() const {
  uint64_t total = 0;
  for (const auto& row : rows_) total += row->size_bytes();
  return total;
}

Status MatrixKvDb::Put(const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return WriteInternal(&batch);
}

Status MatrixKvDb::Delete(const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return WriteInternal(&batch);
}

Status MatrixKvDb::WriteInternal(WriteBatch* batch) {
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

Status MatrixKvDb::Get(const Slice& key, std::string* value) {
  const uint64_t start = clock_->NowNanos();
  MemTable* mem;
  std::vector<L0TableRef> rows;
  SequenceNumber snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = last_sequence_;
    mem = mem_;
    mem->Ref();
    rows = rows_;
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
    // Cross-hint search approximation: rows newest-first, binary search per
    // row (array layout's two PM accesses per probe).
    for (const auto& row : rows) {
      bool found = false;
      Status s = L0TableGet(*row, icmp_, lkey, &local, &found, &probe);
      if (!s.ok()) {
        mem->Unref();
        return s;
      }
      if (found) {
        answered = true;
        source = ReadSource::kPmLevel0;
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

Iterator* MatrixKvDb::NewScanIterator() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Iterator*> children;
  children.push_back(mem_->NewIterator());
  for (const auto& row : rows_) children.push_back(row->NewIterator());
  store_->AppendIterators(&children);
  Iterator* merged = NewMergingIterator(&icmp_, std::move(children));
  return NewUserIterator(merged, &icmp_, last_sequence_);
}

Status MatrixKvDb::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status MatrixKvDb::FlushLocked() {
  if (mem_->num_entries() == 0) return Status::OK();

  std::unique_ptr<Iterator> it(mem_->NewIterator());
  it->SeekToFirst();
  L0TableRef row;
  PMBLADE_RETURN_IF_ERROR(row_factory_->BuildFrom(it.get(), &row));
  it.reset();
  if (row != nullptr) {
    rows_.insert(rows_.begin(), std::move(row));  // newest first
  }
  mem_->Unref();
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  stats_.AddFlush();

  uint64_t old = wal_number_;
  wal_number_ = sst_factory_->NextFileNumber();
  std::unique_ptr<WritableFile> file;
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, wal_number_), &file));
  wal_file_->Close();
  wal_file_ = std::move(file);
  wal_.reset(new wal::Writer(wal_file_.get()));
  env_->RemoveFile(WalFileName(dbname_, old));

  // Column compaction whenever the container exceeds the PM budget.
  while (matrix_bytes() > options_.pm_budget_bytes && !rows_.empty()) {
    PMBLADE_RETURN_IF_ERROR(ColumnCompactionLocked());
  }
  return Status::OK();
}

Status MatrixKvDb::ColumnCompactionLocked() {
  if (rows_.empty()) return Status::OK();
  // Oldest rows covering ~1/columns of the container.
  uint64_t quota = matrix_bytes() / std::max(options_.columns, 1);
  if (quota == 0) quota = 1;
  std::vector<L0TableRef> victims;
  uint64_t taken = 0;
  while (!rows_.empty() && taken < quota) {
    victims.push_back(rows_.back());
    taken += rows_.back()->size_bytes();
    rows_.pop_back();
  }
  std::vector<Iterator*> inputs;
  for (const auto& row : victims) inputs.push_back(row->NewIterator());
  PMBLADE_RETURN_IF_ERROR(
      store_->MergeIntoLevel1(std::move(inputs), kMaxSequenceNumber));
  for (auto& row : victims) row->Destroy();
  stats_.AddMajorCompaction(0);
  return Status::OK();
}

Status MatrixKvDb::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  PMBLADE_RETURN_IF_ERROR(FlushLocked());
  while (!rows_.empty()) {
    PMBLADE_RETURN_IF_ERROR(ColumnCompactionLocked());
  }
  return Status::OK();
}

}  // namespace pmblade

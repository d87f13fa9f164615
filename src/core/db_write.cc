#include "core/db_impl.h"

#include <algorithm>
#include <thread>

#include "compaction/merging_iterator.h"
#include "env/filename.h"
#include "memtable/txn_record.h"
#include "util/sync_point.h"

namespace pmblade {

namespace {

/// Upper bound on one group-commit batch: the leader stops coalescing
/// follower batches past this many WAL bytes.
constexpr size_t kWriteGroupMaxBytes = 1 << 20;

}  // namespace

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  const uint64_t start = clock_->NowNanos();
  WriterState w(updates, options.sync || options_.sync_wal);
  Status status = WriteInternal(w);
  if (updates != nullptr) {
    stats_.RecordWrite(updates->ApproximateSize(),
                       clock_->NowNanos() - start);
  }
  return status;
}

Status DBImpl::WriteInternal(WriterState& w) {
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    // A leader committed this write as part of its group.
    lock.unlock();
    AwaitWakePins(w);
    return w.status;
  }

  // This thread is the group leader: it owns the WAL and the memtable until
  // it pops itself off the queue, which is what makes CommitGroupLocked's
  // unlocked section single-writer.
  Status status;
  WriterState* last_writer = &w;
  if (w.kind != WriteKind::kBatch) {
    // A txn op leads a txn group: every txn op queued directly behind it
    // shares one WAL append run and one fsync. BuildBatchGroup still never
    // coalesces a kBatch group into or past a txn op.
    status = TxnGroupWriteLocked(lock, w, &last_writer);
  } else {
    status = MakeRoomForWrite(lock, /*force=*/w.batch == nullptr);
    if (status.ok() && w.batch != nullptr) {
      bool group_sync = false;
      size_t group_members = 0;
      WriteBatch* group = BuildBatchGroup(&last_writer, &group_sync,
                                          &group_members);
      group->SetSequence(last_sequence_ + 1);
      const Slice rep(group->rep());
      uint64_t ticket = 0;
      status = CommitGroupLocked(lock, &rep, 1, &group, 1, group_sync,
                                 last_sequence_ + group->Count(),
                                 group_members, &ticket);
      if (status.ok()) {
        group_counter_->Inc();
        group_write_counter_->Inc(group_members);
        group_size_hist_->Observe(group_members);
      }
      if (group == &group_batch_) group_batch_.Clear();
    }
  }

  // Wake everyone the group covered (they return with the group status) and
  // promote the next queued writer to leader. The signals go out after mu_
  // is released: a woken writer that preempts this thread then finds mu_
  // free, instead of blocking on it while the preempted holder waits for a
  // CPU, which stalled every write on the DB for up to a scheduler tick.
  WriterState* wake = nullptr;
  WriterState** wake_tail = &wake;
  auto enlist = [&wake_tail](WriterState* x) {
    x->wake_pins.fetch_add(1, std::memory_order_relaxed);
    x->next_wake = nullptr;
    *wake_tail = x;
    wake_tail = &x->next_wake;
  };
  while (true) {
    WriterState* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      // A batch group's members share its status; a txn group's leader
      // already gave each member its own.
      if (w.kind == WriteKind::kBatch) ready->status = status;
      ready->done = true;
      enlist(ready);
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) enlist(writers_.front());
  lock.unlock();
  while (wake != nullptr) {
    WriterState* x = wake;
    wake = x->next_wake;  // read before the unpin: x may then be destroyed
    x->cv.notify_one();
    x->wake_pins.fetch_sub(1, std::memory_order_release);
  }

  AwaitWakePins(w);
  return status;
}

void DBImpl::AwaitWakePins(const WriterState& w) {
  // Only a leader preempted between its notify and its unpin keeps a pin
  // for long; the common case is one load.
  while (w.wake_pins.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

Status DBImpl::AppendToWal(const Slice* records, size_t n,
                           std::vector<PendingMarker>* landed,
                           uint64_t* first_ticket) {
  const uint64_t start = clock_->NowNanos();
  if (pending_markers_.empty()) {
    Status s = wal_->AddRecords(records, n);
    *first_ticket =
        wal_append_ticket_.fetch_add(n, std::memory_order_relaxed) + 1;
    wal_append_hist_->Observe(clock_->NowNanos() - start);
    return s;
  }
  landed->swap(pending_markers_);
  std::vector<Slice> run;
  run.reserve(landed->size() + n);
  for (const PendingMarker& m : *landed) run.emplace_back(m.record);
  run.insert(run.end(), records, records + n);
  Status s = wal_->AddRecords(run.data(), run.size());
  const uint64_t first =
      wal_append_ticket_.fetch_add(run.size(), std::memory_order_relaxed) + 1;
  wal_append_hist_->Observe(clock_->NowNanos() - start);
  if (!s.ok()) {
    // The markers did not land: they wait for the next append.
    pending_markers_.swap(*landed);
    landed->clear();
    *first_ticket = first;
    return s;
  }
  for (size_t i = 0; i < landed->size(); ++i) {
    (*landed)[i].ticket = first + i;
    PMBLADE_SYNC_POINT("DBImpl::CommitTxn:AfterAppend");
  }
  *first_ticket = first + landed->size();
  return s;
}

Status DBImpl::SyncWal() {
  Status s = wal_file_->Sync();
  if (s.ok()) {
    // Appends and syncs are leader-serialized: the fsync covers every
    // ticket handed out so far.
    wal_synced_ticket_.store(
        wal_append_ticket_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return s;
}

Status DBImpl::CommitGroupLocked(std::unique_lock<std::mutex>& lock,
                                 const Slice* records, size_t n,
                                 WriteBatch* const* payloads,
                                 size_t num_payloads, bool sync,
                                 SequenceNumber publish_seq, size_t members,
                                 uint64_t* first_ticket) {
  const bool txn = writers_.front()->kind != WriteKind::kBatch;
  MemTable* mem = mem_;
  Status status;
  bool wal_error = false;
  std::vector<PendingMarker> landed;  // commit markers this append carried
  // The WAL append, ONE fsync for the whole group, the Eq. 2 probes and the
  // memtable inserts all run outside mu_: readers and queueing writers
  // proceed concurrently.
  lock.unlock();
  if (n > 0) {
    // An SSD WAL append/fsync registers one client op so the io-gate's
    // q_cli gauge sees live foreground write pressure (no-op when the
    // SimEnv already classifies this I/O).
    ScopedExternalIo wal_io(track_wal_io_ ? model_ : nullptr,
                            IoClass::kClient);
    status = AppendToWal(records, n, &landed, first_ticket);
    if (!txn) {
      PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalAppend");
    }
    for (size_t i = 0; txn && status.ok() && i < n; ++i) {
      if (IsTxnRecordOfType(records[i], TxnRecordType::kCommit)) {
        PMBLADE_SYNC_POINT("DBImpl::CommitTxn:AfterAppend");
      }
    }
    if (status.ok() && sync) {
      const uint64_t sync_start = clock_->NowNanos();
      status = SyncWal();
      if (status.ok()) {
        wal_sync_counter_->Inc();
        if (!txn) {
          PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalSync");
        }
        size_t bytes = 0;
        for (size_t i = 0; i < n; ++i) {
          bytes += records[i].size();
          if (IsTxnRecordOfType(records[i], TxnRecordType::kPrepare)) {
            PMBLADE_SYNC_POINT("DBImpl::PrepareTxn:AfterSync");
          }
        }
        if (events_.active()) {
          events_.Emit(
              obs::Event(obs::EventType::kWalSync, clock_->NowNanos())
                  .With("bytes", static_cast<double>(bytes))
                  .With("writes", static_cast<double>(members))
                  .With("duration_nanos",
                        static_cast<double>(clock_->NowNanos() -
                                            sync_start)));
        }
      }
    }
    wal_error = !status.ok();
  }
  for (size_t i = 0; status.ok() && i < num_payloads; ++i) {
    status = InsertAndNoteWrites(*payloads[i], mem);
  }
  lock.lock();
  if (wal_error) {
    HandleWalErrorLocked(status);
  } else {
    for (const PendingMarker& m : landed) {
      // A fence stays until its marker is durable, so it is still here.
      auto it = txns_.find(m.txn_id);
      if (it != txns_.end()) it->second.marker_ticket = m.ticket;
    }
  }
  if (status.ok() && num_payloads > 0) {
    // Publish the group's sequences only now that every entry is in the
    // memtable: a reader snapshotting last_sequence_ can never observe a
    // torn group.
    if (txn) {
      PMBLADE_SYNC_POINT("DBImpl::CommitTxn:BeforePublish");
    } else {
      PMBLADE_SYNC_POINT("DBImpl::Write:BeforePublish");
    }
    last_sequence_ = publish_seq;
  }
  return status;
}

void DBImpl::HandleWalErrorLocked(const Status& s) {
  if (!s.IsBusy()) {
    bg_error_ = s;
    return;
  }
  if (imm_ == nullptr && mem_->num_entries() > 0) {
    Status rs = SwitchMemTableLocked();
    if (!rs.ok() && !rs.IsBusy()) bg_error_ = rs;
  }
}

// ---------------------------------------------------------------------------
// Cross-shard two-phase commit (see the header block and sharded_db.cc)
// ---------------------------------------------------------------------------

Status DBImpl::PrepareTxn(const WriteOptions& /*options*/, uint64_t txn_id,
                          const std::vector<uint32_t>& participants,
                          WriteBatch* batch) {
  if (batch == nullptr || batch->Count() == 0) {
    return Status::InvalidArgument("empty txn sub-batch");
  }
  // Prepares are ALWAYS fsynced, regardless of the user's sync flag: the
  // all-prepares-durable state is what lets recovery COMMIT an in-doubt
  // transaction, so an unsynced prepare would turn "resolution commits"
  // into data loss on the other shards.
  WriterState w(WriteKind::kTxnPrepare, txn_id, batch, /*sync=*/true);
  w.participants = &participants;
  return WriteInternal(w);
}

Status DBImpl::CommitTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnCommit, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(w);
}

Status DBImpl::RollbackTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnRollback, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(w);
}

Status DBImpl::TxnGroupWriteLocked(std::unique_lock<std::mutex>& lock,
                                   WriterState& leader,
                                   WriterState** last_writer) {
  // Coalesce the leader with every txn op queued directly behind it — the
  // txn mirror of BuildBatchGroup. Concurrent transactions' records share
  // one WAL append run and at most ONE fsync; without this, N concurrent
  // cross-shard writers pay N sequential prepare fsyncs per shard and 2PC
  // loses the latency the parallel fan-out bought.
  auto run_end = [this] {
    return std::find_if(writers_.begin(), writers_.end(), [](WriterState* x) {
      return x->kind == WriteKind::kBatch;
    });
  };
  const bool has_commit =
      std::any_of(writers_.begin(), run_end(), [](WriterState* x) {
        return x->kind == WriteKind::kTxnCommit;
      });
  // Commits insert buffered payloads into the memtable; make room the same
  // way a batch group does (may rotate the WAL, which carries the pending
  // prepares along, and may drop the lock, so collect the group after).
  Status status =
      has_commit ? MakeRoomForWrite(lock, /*force=*/false) : bg_error_;
  std::vector<WriterState*> group(writers_.begin(), run_end());
  *last_writer = group.back();
  if (!status.ok()) {
    for (WriterState* m : group) m->status = status;
    return status;
  }

  // Stage every member's WAL record under the lock. Members whose op
  // resolves without IO (unknown-txn commit, idempotent re-commit) get
  // their individual status here and are excluded from the append run.
  struct Staged {
    WriterState* w;
    std::string record;
    WriteBatch payload;  // commit only
  };
  std::vector<Staged> staged;
  staged.reserve(group.size());
  SequenceNumber next_seq = last_sequence_;  // running cursor for commits
  bool group_sync = false;
  // A group of nothing but unsynced commits is memory-only: no device
  // write, no fsync. Its markers join pending_markers_ and go out with the
  // next append. Any other group appends every staged record in group
  // order, after the pending markers.
  bool memory_only = true;
  for (WriterState* m : group) {
    const TxnEntry* entry = nullptr;  // commit only
    if (m->kind == WriteKind::kTxnCommit) {
      auto it = txns_.find(m->txn_id);
      if (it == txns_.end()) {
        m->status = Status::InvalidArgument("commit of unknown txn");
        continue;
      }
      if (it->second.committed) {  // idempotent
        m->status = Status::OK();
        continue;
      }
      entry = &it->second;
    }
    staged.emplace_back();
    Staged& s = staged.back();
    s.w = m;
    switch (m->kind) {
      case WriteKind::kTxnPrepare:
        EncodePrepareRecord(m->txn_id, *m->participants, m->batch->rep(),
                            &s.record);
        break;
      case WriteKind::kTxnCommit:
        s.payload.SetContentsFrom(Slice(entry->payload));
        s.payload.SetSequence(next_seq + 1);
        EncodeCommitRecord(m->txn_id, next_seq + 1, &s.record);
        next_seq += s.payload.Count();
        break;
      case WriteKind::kTxnRollback:
        EncodeRollbackRecord(m->txn_id, &s.record);
        break;
      case WriteKind::kBatch:
        break;  // unreachable: the group stops at the first kBatch
    }
    group_sync = group_sync || m->sync;
    if (m->kind != WriteKind::kTxnCommit || m->sync) memory_only = false;
  }
  if (staged.empty()) return leader.status;

  // The whole staged run is one device write; each record still gets its
  // own durability ticket.
  std::vector<Slice> records;
  std::vector<WriteBatch*> payloads;
  for (Staged& s : staged) {
    if (!memory_only) records.emplace_back(s.record);
    if (s.w->kind == WriteKind::kTxnCommit) payloads.push_back(&s.payload);
  }
  uint64_t first_ticket = 0;
  status = CommitGroupLocked(lock, records.data(), records.size(),
                            payloads.data(), payloads.size(), group_sync,
                            next_seq, staged.size(), &first_ticket);
  for (size_t i = 0; status.ok() && i < staged.size(); ++i) {
    Staged& s = staged[i];
    const uint64_t ticket = memory_only ? kMarkerPending : first_ticket + i;
    if (events_.active()) {
      obs::EventType type = s.w->kind == WriteKind::kTxnPrepare
                                ? obs::EventType::kTxnPrepare
                                : s.w->kind == WriteKind::kTxnCommit
                                      ? obs::EventType::kTxnCommit
                                      : obs::EventType::kTxnRollback;
      obs::Event event(type, clock_->NowNanos());
      event.With("txn_id", static_cast<double>(s.w->txn_id));
      if (s.w->kind == WriteKind::kTxnPrepare) {
        event.With("participants",
                   static_cast<double>(s.w->participants->size()))
            .With("bytes", static_cast<double>(s.w->batch->rep().size()));
      }
      events_.Emit(event);
    }
    switch (s.w->kind) {
      case WriteKind::kTxnPrepare: {
        TxnEntry& entry = txns_[s.w->txn_id];
        entry.participants = *s.w->participants;
        entry.payload = s.w->batch->rep();
        entry.committed = false;
        entry.marker_ticket = ticket;
        if (s.w->txn_id > max_seen_txn_id_) max_seen_txn_id_ = s.w->txn_id;
        txn_prepared_counter_->Inc();
        break;
      }
      case WriteKind::kTxnCommit: {
        if (memory_only) {
          pending_markers_.push_back({s.w->txn_id, std::move(s.record)});
        }
        auto it = txns_.find(s.w->txn_id);  // re-find: mu_ was released
        if (it != txns_.end()) {
          it->second.committed = true;
          it->second.base_seq = s.payload.Sequence();
          it->second.marker_ticket = ticket;
        }
        // The user's bytes count once, when they become visible; the
        // prepare is not a second write.
        stats_.AddUserBytes(s.payload.ApproximateSize());
        txn_committed_counter_->Inc();
        break;
      }
      case WriteKind::kTxnRollback:
        txns_.erase(s.w->txn_id);
        txn_rolled_back_counter_->Inc();
        break;
      case WriteKind::kBatch:
        break;
    }
  }
  for (Staged& s : staged) s.w->status = status;
  return leader.status;
}

std::vector<DBImpl::InDoubtTxn> DBImpl::GetInDoubtTxns() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InDoubtTxn> result;
  for (const auto& entry : txns_) {
    if (entry.second.committed) continue;
    InDoubtTxn txn;
    txn.txn_id = entry.first;
    txn.participants = entry.second.participants;
    result.push_back(std::move(txn));
  }
  return result;
}

DBImpl::TxnPeerState DBImpl::QueryTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it != txns_.end()) {
    return it->second.committed ? TxnPeerState::kCommitted
                                : TxnPeerState::kPrepared;
  }
  if (replay_committed_.count(txn_id) != 0) return TxnPeerState::kCommitted;
  if (replay_rolled_back_.count(txn_id) != 0) {
    return TxnPeerState::kRolledBack;
  }
  return TxnPeerState::kUnknown;
}

bool DBImpl::TxnMarkerDurable(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return true;  // already forgotten
  return it->second.marker_ticket <=
         wal_synced_ticket_.load(std::memory_order_relaxed);
}

void DBImpl::ForgetTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  txns_.erase(txn_id);
  replay_committed_.erase(txn_id);
  replay_rolled_back_.erase(txn_id);
}

uint64_t DBImpl::MaxSeenTxnId() {
  std::lock_guard<std::mutex> lock(mu_);
  return max_seen_txn_id_;
}

std::vector<uint64_t> DBImpl::GetRetainedTxnIds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> result;
  for (const auto& entry : txns_) result.push_back(entry.first);
  for (uint64_t txn_id : replay_committed_) result.push_back(txn_id);
  for (uint64_t txn_id : replay_rolled_back_) result.push_back(txn_id);
  return result;
}

WriteBatch* DBImpl::BuildBatchGroup(WriterState** last_writer, bool* sync,
                                    size_t* num_members) {
  WriterState* first = writers_.front();
  WriteBatch* result = first->batch;
  size_t size = result->ApproximateSize();
  *sync = first->sync;
  *last_writer = first;
  *num_members = 1;

  // Cap the group: never past kWriteGroupMaxBytes, and tighter when the
  // leader itself is small so tiny writes aren't delayed behind megabytes
  // of followers.
  size_t max_size = kWriteGroupMaxBytes;
  if (size <= (128 << 10) && size + (128 << 10) < max_size) {
    max_size = size + (128 << 10);
  }

  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    WriterState* candidate = *it;
    // A force-flush marker or txn op must lead its own turn; stop
    // coalescing there.
    if (candidate->batch == nullptr ||
        candidate->kind != WriteKind::kBatch) {
      break;
    }
    if (size + candidate->batch->ApproximateSize() > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch; the leader's own batch is untouched.
      group_batch_.Clear();
      group_batch_.Append(*result);
      result = &group_batch_;
    }
    group_batch_.Append(*candidate->batch);
    size += candidate->batch->ApproximateSize();
    // One fsync covers the whole group: any member that wants durability
    // upgrades everyone (the satellite cost is zero — see Options docs).
    *sync |= candidate->sync;
    *last_writer = candidate;
    ++*num_members;
  }
  return result;
}

Status DBImpl::InsertAndNoteWrites(const WriteBatch& payload,
                                   MemTable* mem) {
  // Partition write/update counters for the cost model. An update is a Put
  // whose key the memtable held before this payload, as the insert's own
  // skiplist search reports it (DRAM only, no value copy): hot keys
  // rewritten within a memtable window are what Eq. 2 cares about. Every
  // delete counts as an update.
  struct CounterObserver : WriteBatch::InsertObserver {
    explicit CounterObserver(DBImpl* d) : db(d) {}
    void Inserted(const Slice& key, ValueType type, bool held_older) override {
      Partition* p = db->FindPartition(key);
      if (p != nullptr) p->NoteWrite(type == kTypeDeletion || held_older);
    }
    DBImpl* db;
  } observer(this);
  return payload.InsertInto(mem, &observer);
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                bool force) {
  bool allow_delay = !force;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const size_t usage = mem_->ApproximateMemoryUsage();
    // The rotation threshold is dynamic: the memory arbiter retunes
    // memtable_limit_ at runtime (it equals options_.memtable_bytes when
    // the arbiter is off).
    const size_t limit = memtable_limit_.load(std::memory_order_relaxed);
    if (allow_delay && imm_ != nullptr &&
        usage >= static_cast<size_t>(limit *
                                     options_.write_slowdown_watermark)) {
      // Soft limit: the flush is behind. Delay this write once by ~1 ms to
      // shed load gradually instead of hitting the hard stall cliff.
      slowdown_counter_->Inc();
      lock.unlock();
      clock_->SleepForNanos(options_.write_slowdown_nanos);
      lock.lock();
      allow_delay = false;
      continue;
    }
    if (!force && usage < limit) break;
    if (imm_ != nullptr) {
      // Hard stall: both memtables are full; wait for the background flush.
      stall_counter_->Inc();
      const uint64_t stall_start = clock_->NowNanos();
      flush_done_cv_.wait(lock, [this] {
        return imm_ == nullptr || !bg_error_.ok();
      });
      stall_nanos_counter_->Inc(clock_->NowNanos() - stall_start);
      continue;
    }
    if (mem_->num_entries() == 0) break;  // nothing to rotate
    PMBLADE_RETURN_IF_ERROR(SwitchMemTableLocked());
    force = false;
  }
  return Status::OK();
}

Status DBImpl::SwitchMemTableLocked() {
  // MakeRoomForWrite guarantees imm_ == nullptr here.
  std::vector<uint64_t> feeding = live_wals_;
  PMBLADE_RETURN_IF_ERROR(NewWal());
  live_wals_.push_back(wal_number_);
  PMBLADE_SYNC_POINT("DBImpl::SwitchMemTable:AfterNewWal");
  imm_wals_ = std::move(feeding);
  imm_ = mem_;
  // Writes are quiesced here (leader context under mu_), so last_sequence_
  // is exactly the frozen memtable's ceiling.
  imm_ceiling_ = last_sequence_;
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  flush_pool_->Submit([this] { BackgroundFlush(); });
  return Status::OK();
}

void DBImpl::BackgroundFlush() {
  MemTable* imm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    imm = imm_;
  }
  if (imm == nullptr) return;
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Start");

  const uint64_t flush_start = clock_->NowNanos();
  if (events_.active()) {
    events_.Emit(obs::Event(obs::EventType::kFlushBegin, flush_start)
                     .With("entries", static_cast<double>(imm->num_entries()))
                     .With("bytes", static_cast<double>(
                                        imm->ApproximateMemoryUsage())));
  }

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  // Build per-partition level-0 tables WITHOUT the DB mutex: imm is frozen,
  // partition boundaries are immutable after Init, and the factory / PM
  // pool are internally synchronized. Readers and writers proceed.
  std::vector<std::pair<Partition*, L0TableRef>> built;
  std::unique_ptr<Iterator> it(imm->NewIterator());
  it->SeekToFirst();
  Status s;
  for (auto& partition : partitions_) {
    if (!it->Valid()) break;
    // Skip partitions before the iterator's position.
    if (!partition->end_key().empty() &&
        ExtractUserKey(it->key()).compare(
            Slice(partition->end_key())) >= 0) {
      continue;
    }
    UserKeyRangeIterator bounded(it.get(), "", partition->end_key());
    L0TableRef table;
    s = factory->BuildFrom(&bounded, &table);
    if (!s.ok()) break;
    if (table != nullptr) built.emplace_back(partition.get(), std::move(table));
  }
  if (s.ok()) s = it->status();
  it.reset();
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:BuiltTables");

  std::unique_lock<std::mutex> lock(mu_);
  if (s.ok()) {
    // Install under a short critical section: each touched partition gets
    // a new set with its table first (newest first).
    std::vector<Partition*> touched;
    for (auto& entry : built) {
      Partition* partition = entry.first;
      auto next = std::make_shared<TableSet>(*partition->tables());
      next->unsorted.insert(next->unsorted.begin(), entry.second);
      partition->set_tables(std::move(next));
      touched.push_back(partition);
    }
    imm_->Unref();
    imm_ = nullptr;
    if (imm_ceiling_ > flushed_sequence_) flushed_sequence_ = imm_ceiling_;
    stats_.AddFlush();
    bg_flush_counter_->Inc();

    // The flushed memtable's logs are now redundant: advance the replay
    // floor, commit the manifest, then delete them.
    std::vector<uint64_t> flushed = std::move(imm_wals_);
    imm_wals_.clear();
    for (uint64_t number : flushed) {
      live_wals_.erase(
          std::remove(live_wals_.begin(), live_wals_.end(), number),
          live_wals_.end());
    }
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Installed");
    s = PersistManifest();
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:ManifestCommitted");
    if (s.ok()) {
      for (uint64_t number : flushed) {
        const std::string path = WalFileName(dbname_, number);
        Status rs = wal_env_->RemoveFile(path);
        if (!rs.ok() && wal_env_->FileExists(path)) {
          // A WAL that survives its delete is re-replayed on the next open —
          // harmless for correctness (its data is already durable in L0 and
          // replay is idempotent) but it costs startup time and disk. Keep
          // retrying after future manifest commits instead of leaking it.
          PMBLADE_WARN(options_.logger, "failed to delete flushed wal %s: %s",
                       path.c_str(), rs.ToString().c_str());
          file_gc_fail_counter_->Inc();
          pending_file_gc_.push_back(path);
        }
      }
      PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:WalsDeleted");
      RetryPendingFileGcLocked();
    }
    if (events_.active()) {
      events_.Emit(
          obs::Event(obs::EventType::kFlushEnd, clock_->NowNanos())
              .With("tables", static_cast<double>(touched.size()))
              .With("duration_nanos",
                    static_cast<double>(clock_->NowNanos() - flush_start)));
    }
    if (s.ok()) {
      // The flush is committed and imm_ is clear: wake stalled writers
      // NOW. Algorithm 1 is handed to the scheduler below and must not
      // extend the stall.
      flush_done_cv_.notify_all();
      ScheduleCompactionCheck(touched);
    }
  } else {
    // Failed build: drop partial outputs. imm_ stays installed for reads
    // and its data remains recoverable from the still-live WALs.
    for (auto& entry : built) entry.second->Destroy();
  }
  if (!s.ok()) {
    bg_error_ = s;
    PMBLADE_WARN(options_.logger, "background flush failed: %s",
                 s.ToString().c_str());
  }
  flush_done_cv_.notify_all();
}

void DBImpl::RetryPendingFileGcLocked() {
  if (pending_file_gc_.empty()) return;
  std::vector<std::string> still_pending;
  for (const std::string& path : pending_file_gc_) {
    if (!wal_env_->FileExists(path)) continue;  // a later attempt got it
    Status rs = wal_env_->RemoveFile(path);
    if (!rs.ok() && wal_env_->FileExists(path)) still_pending.push_back(path);
  }
  pending_file_gc_ = std::move(still_pending);
}

Status DBImpl::FlushMemTable() {
  // Rotate the memtable through the writer queue (a batch-less marker) so
  // WAL rotation stays leader-exclusive, then wait for the background
  // flush to commit.
  PMBLADE_RETURN_IF_ERROR(Write(WriteOptions(), nullptr));
  {
    std::unique_lock<std::mutex> lock(mu_);
    flush_done_cv_.wait(lock, [this] {
      return imm_ == nullptr || !bg_error_.ok();
    });
    PMBLADE_RETURN_IF_ERROR(bg_error_);
  }
  // Algorithm-1 work triggered by this flush runs on the compaction
  // scheduler; drain it so maintenance callers (tests, CompactToLevel1, the
  // crash model) observe the post-compaction state deterministically.
  // Bounded even when the env is dying: failed checks retry at most
  // CompactionScheduler::Options::retry_limit times, then the scheduler
  // parks.
  compaction_scheduler_->WaitIdle();
  return Status::OK();
}

}  // namespace pmblade

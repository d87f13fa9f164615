#include "core/db_impl.h"

#include <algorithm>

#include "compaction/merging_iterator.h"
#include "core/version.h"
#include "util/sync_point.h"

namespace pmblade {

// ---------------------------------------------------------------------------
// Compaction scheduling (Algorithm 1)
// ---------------------------------------------------------------------------

void DBImpl::ScheduleCompactionCheck(const std::vector<Partition*>& touched) {
  for (Partition* partition : touched) {
    MarkCompactionDirtyLocked(partition);
  }
  compaction_scheduler_->ScheduleCheck();
}

void DBImpl::MarkCompactionDirtyLocked(Partition* partition) {
  if (std::find(compaction_dirty_.begin(), compaction_dirty_.end(),
                partition) == compaction_dirty_.end()) {
    compaction_dirty_.push_back(partition);
  }
}

Status DBImpl::BackgroundCompactionCheck() {
  std::unique_lock<std::mutex> lock(mu_);
  // Claim phase: take the dirty partitions no concurrent check holds. A
  // partition another worker is compacting STAYS dirty — the holder's check
  // (or this one, below) hands it to a fresh check once claims release, so
  // dirtiness is never lost and two workers never share a partition.
  std::vector<Partition*> mine;
  {
    std::vector<Partition*> still_held;
    for (Partition* partition : compaction_dirty_) {
      if (compacting_.insert(partition).second) {
        mine.push_back(partition);
      } else {
        still_held.push_back(partition);
      }
    }
    compaction_dirty_ = std::move(still_held);
  }
#ifdef PMBLADE_SYNC_POINTS
  {
    std::vector<uint64_t> claimed_ids;
    for (Partition* partition : mine) claimed_ids.push_back(partition->id());
    PMBLADE_SYNC_POINT_ARG("DBImpl::CompactionCheck:Claimed", &claimed_ids);
  }
#endif
  Status s = RunCompactionsLocked(lock, mine);
  for (Partition* partition : mine) compacting_.erase(partition);
  if (!s.ok()) {
    // Re-arm the dirty set so the scheduler's retry (or the next
    // flush-triggered check) re-evaluates the same partitions.
    for (Partition* partition : mine) MarkCompactionDirtyLocked(partition);
  }
  // Flushes may have re-dirtied partitions this check was holding (a fresh
  // check skipped them as claimed). Only a check that owned claims
  // re-schedules — a check that claimed nothing must not, or two no-op
  // checks would ping-pong the queue while the holder works.
  if (!mine.empty() && !compaction_dirty_.empty() && s.ok()) {
    compaction_scheduler_->ScheduleCheck();
  }
  return s;
}

Status DBImpl::RunCompactionsLocked(std::unique_lock<std::mutex>& lock,
                                    const std::vector<Partition*>& touched) {
  // First failure seen; siblings keep compacting (isolation: one poisoned
  // partition must not block progress elsewhere in the same check).
  Status first_error;
  // ---- PM side: Eq. 1/2 internal compaction (cost model only) ----
  if (options_.enable_cost_model) {
    for (Partition* partition : touched) {
      PartitionCounters counters = partition->Counters();
      CostDecision decision = cost_model_->EvaluateInternal(counters);
      decision_counter_->Inc();
      if (decision.eq1_triggered) eq1_trigger_counter_->Inc();
      if (decision.eq2_triggered) eq2_trigger_counter_->Inc();
      if (events_.active()) {
        // Every evaluation is recorded — negative verdicts explain why a
        // partition was NOT compacted, which matters as much as the
        // positives when debugging the policy.
        events_.Emit(
            obs::Event(obs::EventType::kInternalDecision, clock_->NowNanos())
                .With("partition", static_cast<double>(counters.partition_id))
                .With("n_r_hat", counters.reads_per_sec)
                .With("n_unsorted",
                      static_cast<double>(counters.unsorted_tables))
                .With("n_w", static_cast<double>(counters.writes))
                .With("n_u", static_cast<double>(counters.updates))
                .With("size_bytes", static_cast<double>(counters.size_bytes))
                .With("eq1_benefit_rate", decision.eq1_benefit_rate)
                .With("eq1_cost_rate", decision.eq1_cost_rate)
                .With("eq2_ssd_savings", decision.eq2_ssd_savings)
                .With("eq2_pm_cost", decision.eq2_pm_cost)
                .With("eq1", decision.eq1_triggered ? 1 : 0)
                .With("eq2", decision.eq2_triggered ? 1 : 0));
      }
      if (decision.triggered()) {
        Status is = RunInternalCompactionOnPartition(lock, partition);
        if (!is.ok()) {
          if (!bg_error_.ok()) return is;  // manifest loss: stop the check
          if (first_error.ok()) first_error = is;
        }
      }
    }
  }

  // ---- SSD side: the picker decides what/when/where ----
  // Round 0 is the EVICTION check (the picker's gate + keep-set, evaluated
  // exactly once per check); later rounds drain the policy's shape
  // MAINTENANCE jobs (tiered/lazy run-block merges — leveled never emits
  // any). The round cap bounds a cascade: each round installs at most one
  // job per partition, and a tiered merge cascade over L levels settles in
  // <= L rounds, so 10 covers max_ssd_levels' whole range with slack.
  std::set<Partition*> ours(touched.begin(), touched.end());
  constexpr int kMaxPolicyRounds = 10;
  for (int round = 0; round < kMaxPolicyRounds; ++round) {
    PickContext ctx = BuildPickContextLocked(ours);
    std::vector<CompactionJob> jobs;
    if (round == 0) {
      EvictionPick pick = picker_->PickEviction(ctx);
      NoteKeepSet(ctx, pick);
      jobs = std::move(pick.jobs);
      // A failed internal compaction still evaluates the gate (counter +
      // event, as always) but must not start eviction work.
      if (!first_error.ok()) jobs.clear();
    }
    if (jobs.empty()) {
      if (!first_error.ok()) break;
      jobs = picker_->PickMaintenance(ctx);
    }

    // Claim job partitions this check does not already hold, so concurrent
    // checks stay off them for the whole merge + install.
    std::vector<CompactionJob> claimed;
    std::vector<Partition*> extra_claims;
    for (const CompactionJob& job : jobs) {
      Partition* partition = partitions_[job.partition_index].get();
      if (ours.count(partition) == 0) {
        if (!compacting_.insert(partition).second) continue;  // held
        extra_claims.push_back(partition);
      }
      claimed.push_back(job);
    }
    if (claimed.empty()) break;
    Status ms = RunMajorCompactionOnJobs(lock, claimed);
    for (Partition* partition : extra_claims) {
      compacting_.erase(partition);
      // An extra victim was not in this check's dirty claim, so a failure
      // would not be re-armed by the caller — mark it dirty here so the
      // retry re-selects it.
      if (!ms.ok()) MarkCompactionDirtyLocked(partition);
    }
    if (!ms.ok()) {
      if (first_error.ok()) first_error = ms;
      break;
    }
  }
  return first_error;
}

void DBImpl::NoteKeepSet(const PickContext& ctx, const EvictionPick& pick) {
  if (!pick.keep_set_selected) return;
  keep_set_counter_->Inc();
  if (!events_.active()) return;
  // Per-partition Eq. 3 scores ride in the detail payload (variable size).
  std::string detail = "[";
  char buf[160];
  for (size_t i = 0; i < ctx.partitions.size(); ++i) {
    const PartitionCounters& c = ctx.partitions[i].counters;
    double score = c.size_bytes > 0 ? static_cast<double>(c.reads) /
                                          static_cast<double>(c.size_bytes)
                                    : 0.0;
    snprintf(buf, sizeof(buf),
             "%s{\"partition\":%llu,\"reads\":%llu,\"size_bytes\":%llu,"
             "\"score\":%.17g,\"kept\":%s}",
             i == 0 ? "" : ",", static_cast<unsigned long long>(c.partition_id),
             static_cast<unsigned long long>(c.reads),
             static_cast<unsigned long long>(c.size_bytes), score,
             pick.keep.count(i) != 0 ? "true" : "false");
    detail += buf;
  }
  detail += "]";
  events_.Emit(
      obs::Event(obs::EventType::kKeepSetSelected, clock_->NowNanos())
          .With("partitions", static_cast<double>(ctx.partitions.size()))
          .With("kept", static_cast<double>(pick.keep.size()))
          .With("tau_t", static_cast<double>(pick.tau_t))
          .With("total_l0_bytes", static_cast<double>(ctx.total_l0_bytes))
          .WithDetail(std::move(detail)));
}

Status DBImpl::RunInternalCompactionOnPartition(
    std::unique_lock<std::mutex>& lock, Partition* partition) {
  // The inputs are this set's level-0 tables. Only the claim holder (this
  // thread) removes tables from the partition, so they are all still there
  // at install; flushes may prepend newer tables meanwhile.
  const std::shared_ptr<const TableSet> snap = partition->tables();
  if (snap->unsorted.empty() && snap->sorted_run.size() <= 1) {
    return Status::OK();
  }
  std::vector<L0TableRef> inputs = snap->unsorted;  // newest first
  inputs.insert(inputs.end(), snap->sorted_run.begin(),
                snap->sorted_run.end());

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  InternalCompactionOptions copts;
  copts.target_table_bytes = options_.internal_table_target_bytes;
  // Only this thread changes the run stack, so the verdict stays valid
  // while the lock is released below.
  copts.drop_tombstones = snap->ssd_runs.empty();
  copts.oldest_snapshot = OldestLiveSnapshot();
  copts.clock = clock_;
  copts.event_bus = &events_;
  copts.partition_id = partition->id();

  // The merge runs without mu_: readers and the write pipeline proceed.
  lock.unlock();
  std::vector<L0TableRef> outputs;
  InternalCompactionStats cstats;
  Status s =
      RunInternalCompaction(copts, icmp_, inputs, factory, &outputs, &cstats);
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:Outputs");
  if (!s.ok()) {
    // Retryable: the merge destroyed the tables it built, so PM is not
    // leaked; mutate nothing.
    lock.lock();
    return s;
  }
  lock.lock();

  // Install under mu_: remove exactly the snapshotted tables (newer flushed
  // tables at the front of the unsorted list stay, correctly ordered above
  // the merged run).
  auto next = std::make_shared<TableSet>(*partition->tables());
  RemoveTables(&next->unsorted, snap->unsorted);
  next->sorted_run = std::move(outputs);
  partition->set_tables(std::move(next));
  partition->ResetCounters();
  stats_.AddInternalCompaction(cstats.input_bytes, cstats.output_bytes);

  s = PersistManifest();
  if (!s.ok()) {
    // The new run is already installed in memory; a manifest that cannot be
    // written is a stop-the-world condition (same class as a flush-side
    // manifest failure), not a retryable compaction error.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:AfterManifest");
  for (auto& table : inputs) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "internal compaction p%llu: %llu->%llu tables, released %lld B",
               static_cast<unsigned long long>(partition->id()),
               static_cast<unsigned long long>(cstats.input_tables),
               static_cast<unsigned long long>(cstats.output_tables),
               static_cast<long long>(cstats.bytes_released()));
  return Status::OK();
}

PickContext DBImpl::BuildPickContextLocked(const std::set<Partition*>& ours) {
  PickContext ctx;
  ctx.partitions.reserve(partitions_.size());
  for (const auto& up : partitions_) {
    Partition* partition = up.get();
    const TableSet& set = *partition->tables();
    PartitionView view;
    view.counters = partition->Counters();
    view.l0_bytes = set.L0Bytes();
    view.runs.reserve(set.ssd_runs.size());
    for (const SsdRun& run : set.ssd_runs) {
      PartitionView::RunView rv;
      rv.level = run.level;
      rv.bytes = run.bytes();
      view.runs.push_back(rv);
    }
    // Claimable for job purposes: held by THIS check already, or unclaimed.
    view.claimable =
        ours.count(partition) != 0 || compacting_.count(partition) == 0;
    ctx.total_l0_bytes += view.l0_bytes;
    ctx.partitions.push_back(std::move(view));
  }
  // PM-pressure backstop: the eviction gate also fires when the pool runs
  // short (irrelevant for the SSD-resident kSstable layout).
  ctx.pool_pressure = pool_->FreeBytes() < pool_->capacity() / 8 &&
                      options_.l0_layout != L0Layout::kSstable;
  return ctx;
}

Status DBImpl::RunMajorCompactionOnJobs(
    std::unique_lock<std::mutex>& lock, const std::vector<CompactionJob>& jobs) {
  // Snapshot every job's table set under mu_, both for the merge inputs
  // and for the identity-based install below: tables flushed during the
  // merge must survive it. Run indices stay valid while mu_ is released:
  // the caller holds each job partition's claim, only the claim holder
  // changes the run stack, and flushes never touch it.
  std::vector<std::shared_ptr<const TableSet>> snaps;
  snaps.reserve(jobs.size());
  std::vector<CompactionSubtaskInput> subtasks;
  /// subtasks[i] merges one key-range slice of job subtask_job[i]; slices
  /// of a job occupy consecutive subtask indices in ascending key order,
  /// which is what lets the install below stitch them back into one sorted
  /// output run by simple concatenation.
  std::vector<size_t> subtask_job;
  const size_t max_slices =
      static_cast<size_t>(std::max(options_.max_subcompactions, 1));
  for (size_t j = 0; j < jobs.size(); ++j) {
    const CompactionJob& job = jobs[j];
    std::shared_ptr<const TableSet> set =
        partitions_[job.partition_index]->tables();
    const size_t run_end = std::min(job.run_end, set->ssd_runs.size());
    // Tombstones may drop only when the job's inputs reach the oldest run
    // (its output becomes the new bottom of this partition's stack). A
    // run-stacking eviction (run_end == run_begin == 0 over a non-empty
    // stack) or an upper-level block merge keeps them: older runs below may
    // still hold shadowed versions of the deleted keys.
    const bool drop_tombstones = run_end >= set->ssd_runs.size();

    uint64_t pm_bytes = 0;
    if (job.include_l0) pm_bytes = set->L0Bytes();
    uint64_t ssd_bytes = 0;
    for (size_t r = job.run_begin; r < run_end; ++r) {
      ssd_bytes += set->ssd_runs[r].bytes();
    }
    double ssd_fraction =
        (pm_bytes + ssd_bytes) > 0
            ? static_cast<double>(ssd_bytes) / (pm_bytes + ssd_bytes)
            : 0.0;
    if (options_.l0_layout == L0Layout::kSstable) ssd_fraction = 1.0;

    // Subcompaction split rule: slice the job at the table boundaries of
    // its largest sorted component (the oldest input run when one exists,
    // else the sorted run) — every table's smallest user key is a candidate
    // bound, and up to max_subcompactions-1 evenly spaced candidates are
    // kept. Bounds compare user keys, so all versions of a key share a
    // slice.
    std::vector<std::string> bounds;
    const std::vector<L0TableRef>* base_run = nullptr;
    if (job.run_begin < run_end) {
      base_run = &set->ssd_runs[run_end - 1].tables;
    } else if (job.include_l0) {
      base_run = &set->sorted_run;
    }
    if (max_slices > 1 && base_run != nullptr && base_run->size() > 1) {
      const size_t k = base_run->size();
      const size_t want = std::min(max_slices - 1, k - 1);
      std::set<size_t> cuts;  // positions in [1, k-1]: cut before table pos
      for (size_t jj = 1; jj <= want; ++jj) {
        size_t pos = jj * k / (want + 1);
        cuts.insert(std::max<size_t>(1, std::min(pos, k - 1)));
      }
      for (size_t pos : cuts) {
        bounds.push_back(
            ExtractUserKey((*base_run)[pos]->smallest()).ToString());
      }
    }

    const InternalKeyComparator* icmp = &icmp_;
    const size_t num_slices = bounds.size() + 1;
    for (size_t slice = 0; slice < num_slices; ++slice) {
      std::string lo = slice == 0 ? std::string() : bounds[slice - 1];
      std::string hi = slice + 1 == num_slices ? std::string() : bounds[slice];
      CompactionSubtaskInput sub;
      sub.ssd_input_fraction = ssd_fraction;
      sub.drop_tombstones = drop_tombstones ? 1 : 0;
      sub.make_input = [set, job, icmp, lo, hi]() -> Iterator* {
        Iterator* merged =
            set->NewIterator(icmp, job.include_l0, job.run_begin, job.run_end);
        if (lo.empty() && hi.empty()) {
          merged->SeekToFirst();
          return merged;
        }
        // Slices split at user keys, so the per-slice retention rule in
        // ProcessSlice sees every version of a key.
        Iterator* clipped = new UserKeyRangeIterator(
            std::unique_ptr<Iterator>(merged), lo, hi);
        clipped->SeekToFirst();
        return clipped;
      };
      subtasks.push_back(std::move(sub));
      subtask_job.push_back(j);
    }
    snaps.push_back(std::move(set));
  }

  MajorCompactionOptions mopts = options_.major;
  mopts.oldest_snapshot = OldestLiveSnapshot();
  // Per-subtask verdicts above override this; one Run may mix bottom jobs
  // (full collapses) with non-bottom ones (run stacking, block merges).
  mopts.drop_tombstones = true;
  mopts.clock = clock_;
  MajorCompactor compactor(raw_env_, model_, l1_factory_.get(), mopts);

  // Merge + all simulated-SSD I/O without mu_.
  lock.unlock();
#ifdef PMBLADE_SYNC_POINTS
  {
    // Fired OUTSIDE mu_ so crash/overlap tests may block here without
    // stalling readers, writers or sibling compaction workers.
    std::vector<uint64_t> victim_ids;
    victim_ids.reserve(jobs.size());
    for (const CompactionJob& job : jobs) {
      victim_ids.push_back(partitions_[job.partition_index]->id());
    }
    PMBLADE_SYNC_POINT_ARG("DBImpl::MajorCompaction:BeforeRun", &victim_ids);
  }
#endif
  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats mstats;
  Status s = compactor.Run(subtasks, &outputs, &mstats);
  if (s.ok()) {
    if (subcompaction_counter_ != nullptr) {
      subcompaction_counter_->Inc(subtasks.size());
    }
    if (major_wall_nanos_counter_ != nullptr) {
      major_wall_nanos_counter_->Inc(mstats.wall_nanos);
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterRun");

  // Open ALL outputs before touching any victim: either every table is
  // ready to install or nothing is mutated. (Opening one victim at a time
  // used to leave earlier victims half-installed — and their doomed tables
  // leaked — when an Open failed at victim v>0, and a later flush's
  // manifest commit would persist the mixed state.)
  // One slot per subtask: empty slices produce no output and leave their
  // slot null. Stitching below walks slots in subtask order, which is
  // ascending key order within each job.
  std::vector<L0TableRef> slice_tables(subtasks.size());
  size_t opened = 0;
  while (s.ok() && opened < outputs.size()) {
    const CompactionOutputMeta& meta = outputs[opened];
    s = l1_factory_->OpenSstable(meta.file_number,
                                 &slice_tables[meta.subtask_index]);
    if (!s.ok()) break;  // `opened` must not count this file: it still
                         // needs the RemoveFile below, not a Destroy
    ++opened;
  }
  if (!s.ok()) {
    // Nothing was installed; delete the compaction's output files so a
    // failed run leaves no orphans (opened tables drop theirs via Destroy
    // at last ref, unopened ones are removed directly), and report a
    // retryable failure.
    for (auto& table : slice_tables) {
      if (table != nullptr) table->Destroy();
    }
    for (size_t i = opened; i < outputs.size(); ++i) {
      raw_env_->RemoveFile(outputs[i].path);
    }
    lock.lock();
    return s;
  }

  // Stitch: concatenate each job's slice outputs (already disjoint and
  // ascending) back into one output run, then install everything under a
  // single mu_ hold + manifest commit below.
  std::vector<std::vector<L0TableRef>> new_runs(jobs.size());
  for (size_t i = 0; i < slice_tables.size(); ++i) {
    if (slice_tables[i] != nullptr) {
      new_runs[subtask_job[i]].push_back(std::move(slice_tables[i]));
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:OutputsOpened");
  lock.lock();

  // Install ALL jobs atomically under one mu_ hold + one manifest commit.
  // Remove exactly the snapshotted tables; anything flushed into a
  // partition while the merge ran stays unsorted, above the new run.
  // The input run block [run_begin, run_end) is replaced in place by the
  // output run, preserving the stack's newest-first recency order and its
  // non-decreasing level tags.
  std::vector<L0TableRef> doomed;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const CompactionJob& job = jobs[j];
    Partition* partition = partitions_[job.partition_index].get();
    const TableSet& snap = *snaps[j];
    const size_t run_end = std::min(job.run_end, snap.ssd_runs.size());
    auto next = std::make_shared<TableSet>(*partition->tables());
    if (job.include_l0) {
      doomed.insert(doomed.end(), snap.unsorted.begin(), snap.unsorted.end());
      doomed.insert(doomed.end(), snap.sorted_run.begin(),
                    snap.sorted_run.end());
      RemoveTables(&next->unsorted, snap.unsorted);
      RemoveTables(&next->sorted_run, snap.sorted_run);
    }
    for (size_t r = job.run_begin; r < run_end; ++r) {
      const std::vector<L0TableRef>& run = snap.ssd_runs[r].tables;
      doomed.insert(doomed.end(), run.begin(), run.end());
    }
    std::vector<SsdRun>& stack = next->ssd_runs;
    stack.erase(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                stack.begin() + static_cast<ptrdiff_t>(run_end));
    if (!new_runs[j].empty()) {
      SsdRun out;
      out.level = job.output_level;
      out.tables = std::move(new_runs[j]);
      stack.insert(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                   std::move(out));
    }
    partition->set_tables(std::move(next));
    // Counters feed the Eq. 1/2/3 decisions about PM level-0; a pure
    // shape-maintenance merge does not consume L0, so it keeps them.
    if (job.include_l0) partition->ResetCounters();
  }
  stats_.AddMajorCompaction(mstats.ssd_bytes_written);

  s = PersistManifest();
  if (!s.ok()) {
    // Installed state that cannot reach the manifest: stop-the-world, same
    // class as a flush-side manifest failure.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterManifest");
  for (auto& table : doomed) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "major compaction (%s): %zu jobs in %zu slices, %llu records "
               "in, %llu out",
               picker_->name(), jobs.size(), subtasks.size(),
               static_cast<unsigned long long>(mstats.input_records),
               static_cast<unsigned long long>(mstats.output_records));
  return Status::OK();
}

Status DBImpl::CompactLevel0() {
  // Serialize with background checks on the scheduler thread — the only
  // thread allowed to mutate sorted runs (see partition.h).
  return compaction_scheduler_->RunExclusive([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& partition : partitions_) {
      PMBLADE_RETURN_IF_ERROR(
          RunInternalCompactionOnPartition(lock, partition.get()));
    }
    return Status::OK();
  });
}

Status DBImpl::CompactToLevel1(bool respect_cost_model) {
  // Drain the memtable through the normal (queued, background) flush path
  // first; FlushMemTable also drains the scheduler, so the victim selection
  // below sees post-compaction state.
  PMBLADE_RETURN_IF_ERROR(FlushMemTable());
  return compaction_scheduler_->RunExclusive([this, respect_cost_model] {
    std::unique_lock<std::mutex> lock(mu_);
    PickContext ctx = BuildPickContextLocked({});
    EvictionPick pick;
    if (respect_cost_model) picker_->SelectKeepSet(ctx, &pick);
    NoteKeepSet(ctx, pick);
    std::vector<CompactionJob> jobs;
    for (size_t i = 0; i < ctx.partitions.size(); ++i) {
      const PartitionView& view = ctx.partitions[i];
      if (pick.keep.count(i) != 0) continue;
      // Worth collapsing when level-0 holds data, or the SSD stack is not
      // already one level-1 run (a tiered/lazy shape this manual "compact
      // everything to level 1" API promises to flatten). For leveled-built
      // data this reduces to the historical L0Bytes() > 0 filter.
      const bool flat = view.runs.size() == 1 && view.runs[0].level == 1;
      if (view.l0_bytes == 0 && (view.runs.empty() || flat)) continue;
      jobs.push_back(FullCollapseJob(i, view));
    }
    if (jobs.empty()) return Status::OK();
    return RunMajorCompactionOnJobs(lock, jobs);
  });
}

}  // namespace pmblade

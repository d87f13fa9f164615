// Tests for the one version-retention rule (compaction/version_retention.h)
// and the merges that run it: internal compaction (MergeToTables via
// RunInternalCompaction), major compaction (MajorCompactor's ProcessSlice)
// and the baselines' leveled store (LeveledStore::MergeIntoLevel1).
//
// Random version streams with snapshots and tombstones go through all three
// paths. Each must emit the same entries, and at every live snapshot those
// entries must show the same value as the full history (a reference model).
// A key that does not parse must be Corruption on every path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baseline/leveled_store.h"
#include "compaction/internal_compaction.h"
#include "compaction/major_compaction.h"
#include "compaction/minor_compaction.h"
#include "compaction/version_retention.h"
#include "util/random.h"

namespace pmblade {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

/// An in-memory iterator over (internal key, value) entries already in
/// internal-key order.
class EntryIterator final : public Iterator {
 public:
  explicit EntryIterator(Entries entries) : entries_(std::move(entries)) {}
  bool Valid() const override { return pos_ < entries_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override { ++pos_; }
  void Prev() override {}
  Slice key() const override { return entries_[pos_].first; }
  Slice value() const override { return entries_[pos_].second; }
  Status status() const override { return Status::OK(); }

 private:
  Entries entries_;
  size_t pos_ = 0;
};

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType type) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, type);
  return out;
}

Entries ReadAll(const std::vector<L0TableRef>& tables) {
  Entries out;
  for (const auto& table : tables) {
    std::unique_ptr<Iterator> it(table->NewIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      out.emplace_back(it->key().ToString(), it->value().ToString());
    }
    EXPECT_TRUE(it->status().ok());
  }
  return out;
}

/// The reference model: what a reader at `snapshot` sees in `entries`, the
/// newest version of each user key at or below the snapshot, unless that
/// version is a tombstone.
std::map<std::string, std::string> VisibleAt(const Entries& entries,
                                             SequenceNumber snapshot) {
  std::map<std::string, std::string> visible;
  std::set<std::string> decided;
  for (const auto& [ikey, value] : entries) {
    ParsedInternalKey parsed;
    EXPECT_TRUE(ParseInternalKey(ikey, &parsed));
    std::string user_key = parsed.user_key.ToString();
    if (parsed.sequence > snapshot || decided.count(user_key) > 0) continue;
    decided.insert(user_key);
    if (parsed.type == kTypeValue) visible[user_key] = value;
  }
  return visible;
}

class VersionRetentionTest : public ::testing::Test {
 protected:
  VersionRetentionTest() : icmp_(BytewiseComparator()) {}

  void SetUp() override {
    dir_ = ::testing::TempDir() + "pmblade_version_retention_test";
    PosixEnv()->RemoveDirRecursively(dir_);
    ASSERT_TRUE(PosixEnv()->CreateDir(dir_).ok());
    PmPoolOptions popts;
    popts.capacity = 64 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(dir_ + "/pool.pm", popts, &pool_).ok());

    SsdModelOptions mopts;
    mopts.inject_latency = false;
    model_.reset(new SsdModel(mopts));

    L0FactoryOptions pm_opts;
    pm_opts.layout = L0Layout::kArrayTable;
    pm_opts.icmp = &icmp_;
    pm_factory_.reset(new L0TableFactory(pm_opts, pool_.get(), nullptr));

    L0FactoryOptions sst_opts;
    sst_opts.layout = L0Layout::kSstable;
    sst_opts.icmp = &icmp_;
    sst_opts.ssd_dir = dir_;
    sst_factory_.reset(
        new L0TableFactory(sst_opts, pool_.get(), PosixEnv()));
  }
  void TearDown() override {
    sst_factory_.reset();
    pm_factory_.reset();
    pool_.reset();
    PosixEnv()->RemoveDirRecursively(dir_);
  }

  InternalCompactionOptions MergeOptions(SequenceNumber oldest_snapshot,
                                         bool drop_tombstones) const {
    InternalCompactionOptions options;
    options.target_table_bytes = kTargetBytes;
    options.oldest_snapshot = oldest_snapshot;
    options.drop_tombstones = drop_tombstones;
    return options;
  }

  /// Internal compaction of one PM table holding `input`.
  Status RunInternal(const Entries& input, SequenceNumber oldest_snapshot,
                     bool drop_tombstones, Entries* out) {
    EntryIterator it(input);
    it.SeekToFirst();
    L0TableRef table;
    PMBLADE_RETURN_IF_ERROR(pm_factory_->BuildFrom(&it, &table));
    std::vector<L0TableRef> outputs;
    InternalCompactionStats stats;
    Status s = RunInternalCompaction(
        MergeOptions(oldest_snapshot, drop_tombstones), icmp_, {table},
        pm_factory_.get(), &outputs, &stats);
    *out = ReadAll(outputs);
    for (auto& output : outputs) output->Destroy();
    table->Destroy();
    return s;
  }

  /// Major compaction of `input` as one subtask into one SSTable.
  Status RunMajor(const Entries& input, SequenceNumber oldest_snapshot,
                  bool drop_tombstones, Entries* out) {
    MajorCompactionOptions options;
    options.engine = CompactionEngine::kThread;
    options.oldest_snapshot = oldest_snapshot;
    options.drop_tombstones = drop_tombstones;
    MajorCompactor compactor(PosixEnv(), model_.get(), sst_factory_.get(),
                             options);
    CompactionSubtaskInput subtask;
    subtask.make_input = [input]() -> Iterator* {
      Iterator* it = new EntryIterator(input);
      it->SeekToFirst();
      return it;
    };
    std::vector<CompactionOutputMeta> metas;
    MajorCompactionStats stats;
    PMBLADE_RETURN_IF_ERROR(compactor.Run({subtask}, &metas, &stats));
    std::vector<L0TableRef> tables;
    for (const auto& meta : metas) {
      L0TableRef table;
      PMBLADE_RETURN_IF_ERROR(
          sst_factory_->OpenSstable(meta.file_number, &table));
      tables.push_back(table);
    }
    *out = ReadAll(tables);
    for (auto& table : tables) table->Destroy();
    return Status::OK();
  }

  /// The baselines' merge of `input` into an empty leveled store. Nothing
  /// lies below L1 there, so this path always drops tombstones.
  Status RunBaseline(const Entries& input, SequenceNumber oldest_snapshot,
                     Entries* out) {
    LeveledStoreOptions options;
    options.level1_target_bytes = uint64_t{1} << 40;  // no cascade
    options.target_file_bytes = kTargetBytes;
    LeveledStore store(options, &icmp_, sst_factory_.get());
    Status s = store.MergeIntoLevel1({new EntryIterator(input)},
                                     oldest_snapshot);
    *out = ReadAll(store.levels()[0]);
    for (const auto& table : store.levels()[0]) table->Destroy();
    return s;
  }

  /// Small output tables, so every path cuts the stream many times.
  static constexpr uint64_t kTargetBytes = 96;

  InternalKeyComparator icmp_;
  std::string dir_;
  std::unique_ptr<PmPool> pool_;
  std::unique_ptr<SsdModel> model_;
  std::unique_ptr<L0TableFactory> pm_factory_;
  std::unique_ptr<L0TableFactory> sst_factory_;
};

/// A random version stream in internal-key order: up to 60 versions over
/// up to 12 user keys, a quarter of them tombstones, and up to three live
/// snapshots.
struct Stream {
  Entries entries;
  std::vector<SequenceNumber> snapshots;

  SequenceNumber oldest_snapshot() const {
    return snapshots.empty()
               ? kMaxSequenceNumber
               : *std::min_element(snapshots.begin(), snapshots.end());
  }
};

Stream RandomStream(Random* rnd, const InternalKeyComparator& icmp) {
  Stream stream;
  const uint64_t num_keys = 1 + rnd->Uniform(12);
  const SequenceNumber last = 1 + rnd->Uniform(60);
  for (SequenceNumber seq = 1; seq <= last; ++seq) {
    const bool tombstone = rnd->OneIn(4);
    stream.entries.emplace_back(
        IKey("k" + std::to_string(rnd->Uniform(num_keys)), seq,
             tombstone ? kTypeDeletion : kTypeValue),
        tombstone ? "" : "v" + std::to_string(seq));
  }
  std::sort(stream.entries.begin(), stream.entries.end(),
            [&](const auto& a, const auto& b) {
              return icmp.Compare(a.first, b.first) < 0;
            });
  for (uint64_t n = rnd->Uniform(4); n > 0; --n) {
    stream.snapshots.push_back(1 + rnd->Uniform(last));
  }
  return stream;
}

TEST_F(VersionRetentionTest, DecidesEachVersionOfAStream) {
  // Oldest live snapshot 5: keep versions a reader at 5 or later can see.
  VersionRetention rule(BytewiseComparator(), 5, /*drop_tombstones=*/true);
  const std::vector<std::pair<std::string, bool>> stream = {
      {IKey("a", 9, kTypeValue), true},      // newest
      {IKey("a", 7, kTypeValue), true},      // seen by a snapshot in [7, 9)
      {IKey("a", 3, kTypeDeletion), true},   // seen by snapshot 5
      {IKey("a", 1, kTypeValue), false},     // hidden by 3 from every reader
      {IKey("b", 4, kTypeDeletion), false},  // bottom tombstone all see
      {IKey("b", 2, kTypeValue), false},     // under it
      {IKey("c", 8, kTypeDeletion), true},   // a snapshot below 8 needs it
  };
  for (const auto& [ikey, expected] : stream) {
    bool keep = !expected;
    ASSERT_TRUE(rule.Decide(ikey, &keep).ok());
    EXPECT_EQ(keep, expected) << ExtractUserKey(ikey).ToString() << "@"
                              << (ExtractTag(ikey) >> 8);
  }
  std::string bad;
  AppendInternalKey(&bad, "d", 1, static_cast<ValueType>(0x7));
  bool keep = false;
  EXPECT_TRUE(rule.Decide(bad, &keep).IsCorruption());
  EXPECT_TRUE(rule.Decide("short", &keep).IsCorruption());
}

TEST_F(VersionRetentionTest, EveryMergePathKeepsWhatSnapshotsSee) {
  Random rnd(301);
  for (int round = 0; round < 200; ++round) {
    for (bool drop_tombstones : {false, true}) {
      const Stream stream = RandomStream(&rnd, icmp_);
      const SequenceNumber oldest = stream.oldest_snapshot();
      SCOPED_TRACE("round " + std::to_string(round) +
                   (drop_tombstones ? " dropping" : " keeping") +
                   " tombstones");

      Entries internal, major, baseline;
      ASSERT_TRUE(
          RunInternal(stream.entries, oldest, drop_tombstones, &internal)
              .ok());
      ASSERT_TRUE(
          RunMajor(stream.entries, oldest, drop_tombstones, &major).ok());
      EXPECT_EQ(major, internal);
      if (drop_tombstones) {
        ASSERT_TRUE(RunBaseline(stream.entries, oldest, &baseline).ok());
        EXPECT_EQ(baseline, internal);
      }

      std::vector<SequenceNumber> readers = stream.snapshots;
      readers.push_back(kMaxSequenceNumber);
      for (SequenceNumber reader : readers) {
        EXPECT_EQ(VisibleAt(internal, reader),
                  VisibleAt(stream.entries, reader))
            << "reader at " << reader;
      }
      if (stream.snapshots.empty()) {
        // No snapshot: one version per user key, and no tombstone at the
        // bottom.
        std::set<std::string> user_keys;
        for (const auto& entry : internal) {
          EXPECT_TRUE(
              user_keys.insert(ExtractUserKey(entry.first).ToString())
                  .second);
          if (drop_tombstones) {
            EXPECT_EQ(ExtractTag(entry.first) & 0xff, kTypeValue);
          }
        }
      }
    }
  }
}

TEST_F(VersionRetentionTest, UnparseableKeyIsCorruptionOnEveryPath) {
  // A key with an invalid type byte in the middle of the stream, after
  // several output tables were already cut.
  Entries input;
  for (int i = 0; i < 40; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    input.emplace_back(IKey(key, 100 + i, kTypeValue), "value");
  }
  std::string bad;
  AppendInternalKey(&bad, "k020z", 50, static_cast<ValueType>(0x7));
  input.insert(input.begin() + 21, {bad, "value"});

  const uint64_t pool_used = pool_->UsedBytes();
  Entries out;
  EXPECT_TRUE(RunInternal(input, kMaxSequenceNumber, false, &out)
                  .IsCorruption());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(pool_->UsedBytes(), pool_used);  // built tables are freed

  EXPECT_TRUE(RunMajor(input, kMaxSequenceNumber, true, &out)
                  .IsCorruption());

  EXPECT_TRUE(RunBaseline(input, kMaxSequenceNumber, &out).IsCorruption());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace pmblade

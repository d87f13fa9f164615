// Tests for the PM table family: the three-layer prefix-compressed PM table
// (the paper's core structure), the array-based table, and the two
// LZ-compressed baselines. Includes parameterized cross-structure property
// tests: every structure must agree with an in-memory model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "compress/prefix.h"
#include "memtable/internal_key.h"
#include "pm/pm_pool.h"
#include "pmtable/array_table.h"
#include "pmtable/l0_table.h"
#include "pmtable/pm_table.h"
#include "pmtable/pm_table_builder.h"
#include "pmtable/snappy_table.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace pmblade {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType type = kTypeValue) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, type);
  return out;
}

class PmTableEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_pmtable_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions opts;
    opts.capacity = 64 << 20;
    opts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, opts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
};

TEST_F(PmTableEnv, BuildEmptyTable) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_entries(), 0u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST_F(PmTableEnv, SingleEntry) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("orders|row1", 5), "hello");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_entries(), 1u);
  EXPECT_EQ(table->num_metas(), 1u);

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "orders|row1");
  EXPECT_EQ(it->value().ToString(), "hello");
}

TEST_F(PmTableEnv, MetaLayerExtractsTableIds) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  // Three database tables; the meta layer should hold exactly 3 components.
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 50; ++i) {
      char key[64];
      snprintf(key, sizeof(key), "table%c|row%04d", 'A' + t, i);
      builder.Add(IKey(key, 10), "v");
    }
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_metas(), 3u);
  EXPECT_EQ(table->num_entries(), 150u);
}

TEST_F(PmTableEnv, PrefixCompressionShrinksTable) {
  // Long shared prefixes: the PM table image should be much smaller than an
  // array table over the same data.
  PmTableBuilder pm_builder(pool_.get(), PmTableOptions{});
  ArrayTableBuilder array_builder(pool_.get());
  for (int i = 0; i < 2000; ++i) {
    char key[80];
    snprintf(key, sizeof(key),
             "orders_index_by_user|user%06d|order%06d", i / 4, i);
    std::string ikey = IKey(key, 10);
    pm_builder.Add(ikey, "v");
    array_builder.Add(ikey, "v");
  }
  std::shared_ptr<PmTable> pm_table;
  std::shared_ptr<ArrayTable> array_table;
  ASSERT_TRUE(pm_builder.Finish(&pm_table).ok());
  ASSERT_TRUE(array_builder.Finish(&array_table).ok());
  EXPECT_LT(pm_table->size_bytes(), array_table->size_bytes());
}

TEST_F(PmTableEnv, SeekAcrossMetaBoundaries) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (char t : {'A', 'C', 'E'}) {
    for (int i = 0; i < 40; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "t%c|k%03d", t, i);
      builder.Add(IKey(key, 10), std::string(1, t));
    }
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  // Seek to a meta that does not exist ("tB|...") lands on first tC key.
  it->Seek(IKey("tB|k999", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "tC|k000");
  // Seek past everything.
  it->Seek(IKey("tZ|k000", kMaxSequenceNumber));
  EXPECT_FALSE(it->Valid());
  // Seek before everything.
  it->Seek(IKey("t0|k000", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "tA|k000");
}

TEST_F(PmTableEnv, SeekWithinGroupsExactAndBetween) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{.group_size = 8});
  for (int i = 0; i < 200; i += 2) {
    char key[32];
    snprintf(key, sizeof(key), "tbl|key%05d", i);
    builder.Add(IKey(key, 10), "v" + std::to_string(i));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  for (int i = 0; i < 200; i += 2) {
    char key[32];
    snprintf(key, sizeof(key), "tbl|key%05d", i);
    it->Seek(IKey(key, kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid()) << key;
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), key);
    // Seek between keys finds the next one.
    char between[32];
    snprintf(between, sizeof(between), "tbl|key%05d", i + 1);
    it->Seek(IKey(between, kMaxSequenceNumber));
    if (i + 2 < 200) {
      char next[32];
      snprintf(next, sizeof(next), "tbl|key%05d", i + 2);
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(ExtractUserKey(it->key()).ToString(), next);
    } else {
      EXPECT_FALSE(it->Valid());
    }
  }
}

TEST_F(PmTableEnv, MultipleVersionsNewestFirst) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  // Internal order: same user key, descending seq.
  builder.Add(IKey("tbl|k", 30), "v30");
  builder.Add(IKey("tbl|k", 20), "v20");
  builder.Add(IKey("tbl|k", 10, kTypeDeletion), "");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("tbl|k", 25));  // snapshot 25 sees seq 20
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UnpackSequence(ExtractTag(it->key())), 20u);
  EXPECT_EQ(it->value().ToString(), "v20");
}

TEST_F(PmTableEnv, ReopenFromPool) {
  uint64_t id;
  {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (int i = 0; i < 100; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "tbl|key%04d", i);
      builder.Add(IKey(key, 5), "val" + std::to_string(i));
    }
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok());
    id = table->id();
  }
  // Reopen by id (simulates recovery).
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(PmTable::Open(pool_.get(), id, &table).ok());
  EXPECT_EQ(table->num_entries(), 100u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("tbl|key0042", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "val42");
}

TEST_F(PmTableEnv, DestroyFreesPoolSpace) {
  uint64_t before = pool_->FreeBytes();
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 1000; ++i) {
    builder.Add(IKey("t|" + std::to_string(1000 + i), 5),
                std::string(100, 'x'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_LT(pool_->FreeBytes(), before);
  ASSERT_TRUE(table->Destroy().ok());
  // The free is deferred until the last reference drops, so concurrent
  // readers holding a ref never observe freed storage.
  EXPECT_LT(pool_->FreeBytes(), before);
  table.reset();
  EXPECT_EQ(pool_->FreeBytes(), before);
}

TEST_F(PmTableEnv, BoundariesCached) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("t|aaa", 5), "v");
  builder.Add(IKey("t|mmm", 5), "v");
  builder.Add(IKey("t|zzz", 5), "v");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(ExtractUserKey(table->smallest()).ToString(), "t|aaa");
  EXPECT_EQ(ExtractUserKey(table->largest()).ToString(), "t|zzz");
}

TEST_F(PmTableEnv, KeysWithoutSeparator) {
  // Keys with no '|' have an empty meta component; the table must still
  // function.
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 50; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "plain%04d", i);
    builder.Add(IKey(key, 5), "v");
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_metas(), 1u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("plain0025", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "plain0025");
}

TEST_F(PmTableEnv, PmReadTrafficIsAccounted) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 500; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    builder.Add(IKey(key, 5), std::string(64, 'v'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_GT(pool_->stats().bytes_written(), 0u);

  pool_->stats().Reset();
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("t|key00250", kMaxSequenceNumber));
  EXPECT_GT(pool_->stats().read_accesses(), 0u);
}

// ---------------------------------------------------------------------------
// PmTable::Get, the iterator-free point lookup
// ---------------------------------------------------------------------------

class PmTableGetTest : public PmTableEnv,
                       public ::testing::WithParamInterface<uint32_t> {};

TEST_P(PmTableGetTest, MatchesIteratorSeek) {
  const InternalKeyComparator icmp(BytewiseComparator());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Random r(seed);
    // User keys under a few metas; each has 1-4 versions, and every tenth
    // one a run longer than a group, so versions straddle group boundaries.
    std::set<std::string> user_keys;
    const char* metas[] = {"orders|", "users|", "k"};
    while (user_keys.size() < 300) {
      std::string key = metas[r.Uniform(3)];
      std::string suffix;
      r.RandomString(1 + r.Uniform(12), &suffix);
      user_keys.insert(key + suffix);
    }
    PmTableBuilder builder(pool_.get(),
                           PmTableOptions{.group_size = GetParam()});
    std::vector<std::pair<std::string, SequenceNumber>> probes;
    for (const std::string& user_key : user_keys) {
      const int versions =
          r.OneIn(10) ? static_cast<int>(GetParam()) + 3
                      : 1 + static_cast<int>(r.Uniform(4));
      SequenceNumber seq = 1000 + r.Uniform(1000);
      for (int v = 0; v < versions; ++v) {
        const ValueType type = r.OneIn(4) ? kTypeDeletion : kTypeValue;
        std::string value;
        if (type == kTypeValue) r.RandomBytes(r.Uniform(80), &value);
        builder.Add(IKey(user_key, seq, type), value);
        // Snapshots at, just above and just below this version.
        probes.emplace_back(user_key, seq);
        probes.emplace_back(user_key, seq + 1);
        probes.emplace_back(user_key, seq - 1);
        seq -= 1 + r.Uniform(20);
      }
      probes.emplace_back(user_key, kMaxSequenceNumber);
      probes.emplace_back(user_key, 0);  // older than every version
      probes.emplace_back(user_key + "\x01", kMaxSequenceNumber);  // absent
    }
    // Keys outside the table's range on both sides.
    probes.emplace_back("", kMaxSequenceNumber);
    probes.emplace_back("a", 5);
    probes.emplace_back("zzzz", kMaxSequenceNumber);
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok());

    int hits = 0;
    for (const auto& [user_key, snapshot] : probes) {
      LookupKey lkey(user_key, snapshot);
      std::string want_value, got_value;
      L0Table::GetResult want, got;
      // The base class's lookup, an iterator Seek, is the oracle.
      Status want_status =
          table->L0Table::Get(icmp, lkey, &want_value, &want);
      Status got_status = table->Get(icmp, lkey, &got_value, &got);
      ASSERT_TRUE(want_status.ok());
      ASSERT_TRUE(got_status.ok()) << got_status.ToString();
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(want))
          << user_key << " @" << snapshot << " seed " << seed;
      if (want == L0Table::GetResult::kValue) {
        ASSERT_EQ(got_value, want_value) << user_key << " @" << snapshot;
        ++hits;
      }
    }
    EXPECT_GT(hits, 100);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PmTableGetTest,
                         ::testing::Values(8u, 16u));

// The DRAM group search against oracles: Seek against the sorted key model,
// Get against the iterator's Seek, on key sets that stress the slots and the
// meta ranges.
class PmTableSearchTest : public PmTableEnv,
                          public ::testing::WithParamInterface<uint32_t> {
 protected:
  struct Entry {
    std::string ikey;
    std::string value;
  };

  /// Builds a table of `user_keys`, each with `versions_of(key)` versions
  /// (newest first), and checks every probe key at several snapshots.
  void BuildAndCheck(const std::set<std::string>& user_keys,
                     const std::vector<std::string>& extra_probes,
                     int (*versions_of)(const std::string&)) {
    const InternalKeyComparator icmp(BytewiseComparator());
    PmTableBuilder builder(pool_.get(),
                           PmTableOptions{.group_size = GetParam()});
    std::vector<Entry> model;
    std::vector<std::pair<std::string, SequenceNumber>> probes;
    SequenceNumber next = 100;
    for (const std::string& user_key : user_keys) {
      const int versions = versions_of(user_key);
      SequenceNumber seq = next + 2 * versions;
      for (int v = 0; v < versions; ++v, seq -= 2) {
        const ValueType type = (seq % 7 == 0) ? kTypeDeletion : kTypeValue;
        const std::string value =
            type == kTypeValue ? user_key + "@" + std::to_string(seq) : "";
        model.push_back(Entry{IKey(user_key, seq, type), value});
        builder.Add(model.back().ikey, value);
        probes.emplace_back(user_key, seq);
        probes.emplace_back(user_key, seq + 1);
      }
      next += 2 * versions + 10;
    }
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok());

    std::vector<std::string> probe_keys(extra_probes);
    for (const std::string& user_key : user_keys) {
      probe_keys.push_back(user_key);
      probe_keys.push_back(user_key + std::string(1, '\0'));
      probe_keys.push_back(user_key + "\x01");
      if (!user_key.empty()) {
        probe_keys.push_back(user_key.substr(0, user_key.size() - 1));
        std::string before = user_key;
        before.back() = static_cast<char>(before.back() - 1);
        probe_keys.push_back(before);
      }
    }
    for (const std::string& key : probe_keys) {
      probes.emplace_back(key, kMaxSequenceNumber);
      probes.emplace_back(key, 0);
    }

    std::unique_ptr<Iterator> it(table->NewIterator());
    for (const auto& [user_key, snapshot] : probes) {
      LookupKey lkey(user_key, snapshot);
      const Slice target = lkey.internal_key();
      const auto want = std::lower_bound(
          model.begin(), model.end(), target,
          [&icmp](const Entry& e, const Slice& t) {
            return icmp.Compare(e.ikey, t) < 0;
          });
      it->Seek(target);
      ASSERT_TRUE(it->status().ok()) << it->status().ToString();
      if (want == model.end()) {
        ASSERT_FALSE(it->Valid())
            << "Seek(" << user_key << " @" << snapshot << ") found "
            << ExtractUserKey(it->key()).ToString();
      } else {
        ASSERT_TRUE(it->Valid())
            << "Seek(" << user_key << " @" << snapshot << ")";
        ASSERT_EQ(it->key().ToString(), want->ikey)
            << "Seek(" << user_key << " @" << snapshot << ") found "
            << ExtractUserKey(it->key()).ToString() << ", want "
            << ExtractUserKey(want->ikey).ToString();
        ASSERT_EQ(it->value().ToString(), want->value);
      }

      std::string want_value, got_value;
      L0Table::GetResult want_result, got_result;
      ASSERT_TRUE(
          table->L0Table::Get(icmp, lkey, &want_value, &want_result).ok());
      Status s = table->Get(icmp, lkey, &got_value, &got_result);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(static_cast<int>(got_result), static_cast<int>(want_result))
          << "Get(" << user_key << " @" << snapshot << ")";
      if (want_result == L0Table::GetResult::kValue) {
        ASSERT_EQ(got_value, want_value);
      }
    }
  }

  static int OneVersion(const std::string&) { return 1; }
};

TEST_P(PmTableSearchTest, RemaindersShorterThanTheSlot) {
  // User remainders of 0-7 bytes: the on-PM slot of such a key carries tag
  // bytes, the DRAM slot zero padding (so "ab" and "ab\0" tie).
  std::set<std::string> keys = {"",      "a",      "ab",  std::string("ab\0", 3),
                                "ab\x01", "abc",    "b",   "t|",
                                "t|a",   "t|ab",   "t|b", "t|bcdefgh",
                                "t|bcdefghi", "u|", "u|\xff", "x"};
  for (int i = 0; i < 60; ++i) {
    keys.insert("s|" + std::to_string(i % 7) + std::to_string(i));
    keys.insert(std::string(1, static_cast<char>('c' + i % 5)) +
                std::to_string(i));
  }
  BuildAndCheck(keys, {"\xff", "t|\xff", "a\xff"}, OneVersion);
}

TEST_P(PmTableSearchTest, SlotTieRunsSpanSeveralGroups) {
  // Remainders sharing their first 8 bytes: every slot of the run ties.
  // The outer keys keep the bytes every first key of a range shares empty.
  std::set<std::string> keys = {"t|aaa", "t|zzz", "0", "shared8b",
                                "shared8c", "~"};
  for (int i = 0; i < 80; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "t|sharedpf%03d", i);
    keys.insert(buf);
    snprintf(buf, sizeof(buf), "sharedpf%03d", i * 3);
    keys.insert(buf);
  }
  BuildAndCheck(keys, {"t|sharedpf", "t|sharedpe", "t|sharedpg", "sharedpf"},
                OneVersion);
}

TEST_P(PmTableSearchTest, RangesSharingALongPrefix) {
  // Index-shaped keys: every first remainder of the range starts with
  // "user00000000", so the slots start after those bytes; targets leave the
  // shared bytes on either side and inside them.
  // In the "n|" range the shared byte is "a" and the slots start at 'x' to
  // 'z', so "n|b" sorts after every first key though its own first byte
  // sorts before their slots.
  std::set<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    char buf[64];
    snprintf(buf, sizeof(buf), "idx|user%016d|order%04d", i / 3, i);
    keys.insert(buf);
    snprintf(buf, sizeof(buf), "n|a%c%03d", "xz"[i % 2], i);
    keys.insert(buf);
  }
  BuildAndCheck(keys,
                {"idx|", "idx|user", "idx|user0000", "idx|user00000001",
                 "idx|usea", "idx|usez", "idx|user0000000000000099|",
                 "idx|user0000000000000100", "idx|user1", "idx|v", "n|",
                 "n|a", "n|ay", "n|b", "n|c", "n|a\xff"},
                [](const std::string& key) {
                  return key.back() == '7' ? 19 : 1;
                });
}

TEST_P(PmTableSearchTest, MetasNeitherSortedNorUnique) {
  // Metas "", "a|", "", "b|", "": a plain first-match on the meta picks the
  // wrong range.
  BuildAndCheck({"a", "a|x", "a|y", "b", "b|z", "c"},
                {"a|", "a|a", "a|z", "b|", "b|a", "c|q", "0", "d"},
                OneVersion);
}

TEST_P(PmTableSearchTest, SeekBeforeAMetaRangeLandsOnItsFirstKey) {
  std::set<std::string> keys = {"d"};
  for (int i = 0; i < 100; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "c|key%03d", i);
    keys.insert(buf);
  }
  // "b" has the meta of "d"'s range, not of the c| range it precedes.
  BuildAndCheck(keys, {"b", "b|q", "c", "c|", "cz|", "d|x", "e|", "e"},
                OneVersion);

  PmTableBuilder builder(pool_.get(), PmTableOptions{.group_size = GetParam()});
  for (const std::string& key : keys) builder.Add(IKey(key, 1), "v");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("b", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "c|key000");
}

TEST_P(PmTableSearchTest, VersionsStraddleGroups) {
  // Every third key has more versions than a group holds.
  std::set<std::string> keys;
  for (int i = 0; i < 40; ++i) {
    keys.insert("v|key" + std::to_string(100 + i));
    keys.insert("w" + std::to_string(i));
  }
  BuildAndCheck(keys, {"v|", "v|key", "w", "x"}, [](const std::string& key) {
    return key.back() % 3 == 0 ? 19 : 2;
  });
}

TEST_P(PmTableSearchTest, RandomKeysAgainstTheModel) {
  // Short keys over an alphabet with the meta separator and the extreme
  // bytes: short remainders, repeated and interleaved metas, slot ties.
  const char alphabet[] = {'a', 'b', '|', '\0', '\xff', 'k'};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Random r(seed);
    auto random_key = [&] {
      std::string key;
      const uint32_t len = r.Uniform(12);
      for (uint32_t i = 0; i < len; ++i) key.push_back(alphabet[r.Uniform(6)]);
      return key;
    };
    std::set<std::string> keys;
    while (keys.size() < 200) keys.insert(random_key());
    std::vector<std::string> probes;
    for (int i = 0; i < 200; ++i) probes.push_back(random_key());
    BuildAndCheck(keys, probes, [](const std::string& key) {
      return key.size() % 5 == 0 ? 11 : 1;
    });
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PmTableSearchTest,
                         ::testing::Values(8u, 16u));

TEST_F(PmTableEnv, GetChargesOnlyWalkedHeadersAndMatchedValue) {
  // One meta, so groups are exactly 16 consecutive entries.
  const PmTableOptions opts;  // group_size 16, prefix_width 8
  std::vector<std::string> keys;
  PmTableBuilder builder(pool_.get(), opts);
  for (int i = 0; i < 500; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    keys.push_back(IKey(key, 5));
    builder.Add(keys.back(), std::string(64, 'v'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  const uint32_t groups = table->num_groups();
  ASSERT_EQ(groups, 32u);
  const InternalKeyComparator icmp(BytewiseComparator());

  // The group's common prefix over key remainders (key minus its "t|"
  // meta), clamped to the slot width.
  const size_t meta = 2;
  auto common_of = [&](uint32_t g) {
    std::vector<Slice> remainders;
    for (uint32_t i = g * 16; i < std::min<uint32_t>(g * 16 + 16, 500); ++i) {
      remainders.emplace_back(keys[i].data() + meta, keys[i].size() - meta);
    }
    return std::min<size_t>(prefix::CommonPrefixLengthAll(remainders), 8);
  };
  for (int j : {0, 15, 16, 250, 255, 256, 499}) {
    LookupKey lkey(ExtractUserKey(keys[j]), kMaxSequenceNumber);
    const Slice target = lkey.internal_key();
    // The group search runs in DRAM: the one meta range starts at group 0,
    // then an upper bound over the groups' user-remainder slots from group
    // 1 on reads a group's first key from PM only when its slot ties the
    // target's. Past the bytes all first remainders share ("key00"), these
    // remainders fit their slots, so a tie means the target's key opens the
    // probed group.
    uint32_t decoded = 0, lo = 0;
    if (icmp.Compare(keys[0], target) <= 0) {
      Slice want = ExtractUserKey(target);
      want.remove_prefix(meta);
      uint32_t hi = groups;
      lo = 1;
      while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        Slice first = ExtractUserKey(keys[mid * 16]);
        first.remove_prefix(meta);
        int cmp = first.compare(want);
        if (cmp == 0) {
          ++decoded;
          cmp = icmp.Compare(keys[mid * 16], target);
        }
        if (cmp > 0) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
    }
    // The walk runs from the candidate group to the match: a header (two
    // 1-byte varints) and a suffix per entry, one access per group. A
    // lookup at the newest snapshot sorts before its key's entry, so when
    // that entry opens a group the candidate is the group before it.
    const uint32_t candidate = lo > 0 ? lo - 1 : 0;
    uint64_t walked = 0;
    for (uint32_t i = candidate * 16; i <= static_cast<uint32_t>(j); ++i) {
      walked += 2 + keys[i].size() - meta - common_of(i / 16);
    }
    const uint32_t groups_walked = j / 16 - candidate + 1;

    pool_->stats().Reset();
    std::string value;
    L0Table::GetResult result;
    ASSERT_TRUE(table->Get(icmp, lkey, &value, &result).ok());
    ASSERT_EQ(result, L0Table::GetResult::kValue);
    EXPECT_EQ(value, std::string(64, 'v'));
    EXPECT_EQ(pool_->stats().bytes_read(),
              decoded * (opts.prefix_width + 16) + walked + 64)
        << "key " << j;
    EXPECT_EQ(pool_->stats().read_accesses(), decoded + groups_walked)
        << "key " << j;
    // Only a key that opens a group ties a slot.
    EXPECT_EQ(decoded, j % 16 == 0 && j > 0 ? 1u : 0u) << "key " << j;
  }
}

TEST_F(PmTableEnv, GetOfAnAbsentMetaDecodesNoFirstKey) {
  // "b|q" sorts inside the table but its meta is absent: it does not start
  // with the bracketing "a|" range's meta and shared bytes, so it sorts
  // after all of that range's groups without a PM probe. The Get walks the
  // range's last group and the first entry of the next: two accesses.
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 800; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "%c|key%05d", i < 400 ? 'a' : 'c', i);
    builder.Add(IKey(key, 5), "v");
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  const InternalKeyComparator icmp(BytewiseComparator());
  for (const char* key : {"b|q", "b"}) {
    pool_->stats().Reset();
    std::string value;
    L0Table::GetResult result;
    ASSERT_TRUE(table->Get(icmp, LookupKey(key, kMaxSequenceNumber), &value,
                           &result)
                    .ok());
    EXPECT_EQ(result, L0Table::GetResult::kAbsent) << key;
    EXPECT_EQ(pool_->stats().read_accesses(), 2u) << key;
  }
}

TEST_F(PmTableEnv, TruncatedEntryHeaderIsCorruption) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    keys.push_back(IKey(key, 5));
    builder.Add(keys.back(), std::string(20, 'v'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  const InternalKeyComparator icmp(BytewiseComparator());
  char* base = pool_->DataFor(table->id());
  const uint32_t gindex_off = DecodeFixed32(base + 32);
  const uint32_t entry_off = DecodeFixed32(base + 36);
  const uint32_t total = DecodeFixed32(base + 40);

  auto expect_corruption = [&](int j) {
    LookupKey lkey(ExtractUserKey(keys[j]), kMaxSequenceNumber);
    std::string value;
    L0Table::GetResult result;
    EXPECT_TRUE(table->Get(icmp, lkey, &value, &result).IsCorruption());
    bool found = false;
    Status result_status;
    EXPECT_TRUE(L0TableGet(*table, icmp, lkey, &value, &found,
                           &result_status)
                    .IsCorruption());
    EXPECT_FALSE(found);
    std::unique_ptr<Iterator> it(table->NewIterator());
    it->Seek(lkey.internal_key());
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().IsCorruption());
  };

  // The walk: the second entry's header becomes an over-long varint.
  {
    const char* p = base + entry_off;
    uint32_t suffix_len = 0, value_len = 0;
    p = GetVarint32Ptr(p, base + total, &suffix_len);
    p = GetVarint32Ptr(p, base + total, &value_len);
    memset(const_cast<char*>(p) + suffix_len + value_len, 0xff, 5);
    expect_corruption(1);
  }
  // The group search: the last group's first header starts on the image's
  // final byte, a varint continuation that runs into the end of the table.
  // The search reads that header when the target's slot ties the group's,
  // as the group's own first key does.
  {
    const uint32_t last = table->num_groups() - 1;
    EncodeFixed32(base + gindex_off + last * 16, total - entry_off - 1);
    base[total - 1] = static_cast<char>(0x80);
    expect_corruption(static_cast<int>(last) * 16);
  }
}

// ---------------------------------------------------------------------------
// Cross-structure property tests: each L0 structure vs an in-memory model.
// ---------------------------------------------------------------------------

enum class Structure { kPmTable, kPmTableGroup8, kArray, kSnappy, kSnappyGroup };

class L0StructureTest : public PmTableEnv,
                        public ::testing::WithParamInterface<Structure> {
 protected:
  // The param interface clashes with PmTableEnv's Test base; re-declare.
};

class L0PropertyTest : public ::testing::TestWithParam<Structure> {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_l0prop_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions opts;
    opts.capacity = 64 << 20;
    opts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, opts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  /// `entries` iterates (internal key, value) pairs in internal order: a
  /// model map (one seq per user key) or a fixed stream.
  template <typename Entries>
  L0TableRef Build(const Entries& model) {
    switch (GetParam()) {
      case Structure::kPmTable: {
        PmTableBuilder b(pool_.get(), PmTableOptions{.group_size = 16});
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<PmTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kPmTableGroup8: {
        PmTableBuilder b(pool_.get(),
                         PmTableOptions{.group_size = 8, .prefix_width = 12});
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<PmTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kArray: {
        ArrayTableBuilder b(pool_.get());
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<ArrayTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kSnappy: {
        SnappyTableBuilder b(pool_.get(), 1);
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<SnappyTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kSnappyGroup: {
        SnappyTableBuilder b(pool_.get(), 8);
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<SnappyTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
    }
    return nullptr;
  }

  static std::map<std::string, std::string> MakeModel(int n, uint64_t seed) {
    Random r(seed);
    std::map<std::string, std::string> model;
    const char* tables[] = {"orders|", "users|", "idx_user_orders|"};
    while (static_cast<int>(model.size()) < n) {
      std::string user_key = tables[r.Uniform(3)];
      std::string suffix;
      r.RandomString(4 + r.Uniform(20), &suffix);
      user_key += suffix;
      std::string value;
      r.RandomBytes(r.Uniform(120), &value);
      model[IKey(user_key, 7)] = value;
    }
    return model;
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
};

TEST_P(L0PropertyTest, FullScanMatchesModel) {
  auto model = MakeModel(800, 42);
  L0TableRef table = Build(model);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->num_entries(), model.size());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  // Model keys sort by raw bytes; internal order for distinct user keys with
  // equal seq is the same as byte order of (user_key ++ tag).
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_P(L0PropertyTest, SeekEveryKeyFindsIt) {
  auto model = MakeModel(400, 99);
  L0TableRef table = Build(model);
  std::unique_ptr<Iterator> it(table->NewIterator());
  for (auto& [k, v] : model) {
    std::string seek_key =
        IKey(ExtractUserKey(k).ToString(), kMaxSequenceNumber);
    it->Seek(seek_key);
    ASSERT_TRUE(it->Valid()) << ExtractUserKey(k).ToString();
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(),
              ExtractUserKey(k).ToString());
    EXPECT_EQ(it->value().ToString(), v);
  }
}

TEST_P(L0PropertyTest, GenericGetAgainstModel) {
  auto model = MakeModel(300, 7);
  L0TableRef table = Build(model);
  InternalKeyComparator icmp(BytewiseComparator());
  for (auto& [k, v] : model) {
    LookupKey lkey(ExtractUserKey(k), kMaxSequenceNumber);
    std::string value;
    bool found = false;
    Status result;
    ASSERT_TRUE(
        L0TableGet(*table, icmp, lkey, &value, &found, &result).ok());
    ASSERT_TRUE(found) << ExtractUserKey(k).ToString();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(value, v);
  }
  // Absent keys.
  LookupKey absent("zzzz|not-there", kMaxSequenceNumber);
  std::string value;
  bool found = true;
  Status result;
  ASSERT_TRUE(
      L0TableGet(*table, icmp, absent, &value, &found, &result).ok());
  EXPECT_FALSE(found);
}

// A fixed entry stream with every shape a builder encodes: four metas (one
// empty), remainders sharing more bytes than a slot holds, tombstones, and
// keys with up to three versions.
std::vector<std::pair<std::string, std::string>> FixedStream() {
  Random r(2026);
  std::set<std::string> user_keys;
  while (user_keys.size() < 600) {
    std::string key;
    switch (r.Uniform(4)) {
      case 0:
        r.RandomString(3 + r.Uniform(12), &key);
        break;
      case 1:
        key = "orders|";
        r.RandomString(4 + r.Uniform(20), &key);
        break;
      case 2:
        key = "users|";
        r.RandomString(1 + r.Uniform(6), &key);
        break;
      default:
        key = "idx_user_orders|user00000000" + std::to_string(r.Uniform(40)) +
              "|order";
        r.RandomString(2 + r.Uniform(4), &key);
        break;
    }
    user_keys.insert(key);
  }
  std::vector<std::pair<std::string, std::string>> stream;
  SequenceNumber seq = 100000;
  for (const std::string& key : user_keys) {
    const int versions = 1 + static_cast<int>(r.Uniform(3));
    for (int v = 0; v < versions; ++v) {
      seq -= 1 + r.Uniform(5);
      std::string value;
      if (r.OneIn(5)) {
        stream.emplace_back(IKey(key, seq, kTypeDeletion), value);
      } else {
        r.RandomBytes(r.Uniform(300), &value);
        stream.emplace_back(IKey(key, seq), value);
      }
    }
  }
  return stream;
}

// The builders' pool objects are pinned by checksum: a build path change
// must land exactly the bytes the committed layouts define.
TEST_P(L0PropertyTest, PoolObjectMatchesCommittedChecksum) {
  struct Pinned {
    uint64_t size;
    uint32_t crc;
  };
  const Pinned pinned[] = {
      {160299, 3227503615u},  // kPmTable (group 16)
      {162407, 1338981656u},  // kPmTableGroup8
      {163941, 1345435983u},  // kArray
      {172458, 742347897u},   // kSnappy
      {156197, 2788425679u},  // kSnappyGroup
  };
  const auto stream = FixedStream();
  L0TableRef table = Build(stream);
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->num_entries(), stream.size());
  const char* data = pool_->DataFor(table->id());
  ASSERT_NE(data, nullptr);
  const uint64_t size = table->size_bytes();
  const uint32_t crc = crc32c::Value(data, size);
  const Pinned& want = pinned[static_cast<int>(GetParam())];
  EXPECT_EQ(size, want.size);
  EXPECT_EQ(crc, want.crc);
}

TEST_P(L0PropertyTest, BackwardScanMatchesModel) {
  auto model = MakeModel(200, 13);
  L0TableRef table = Build(model);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToLast();
  for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), rit->first);
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(Structures, L0PropertyTest,
                         ::testing::Values(Structure::kPmTable,
                                           Structure::kPmTableGroup8,
                                           Structure::kArray,
                                           Structure::kSnappy,
                                           Structure::kSnappyGroup));

}  // namespace
}  // namespace pmblade

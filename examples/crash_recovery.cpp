// Crash recovery: demonstrate PM-Blade's durability story end to end.
//
//   ./crash_recovery [db_path]
//
// Phase 1 writes data into every layer (WAL-only, PM level-0 unsorted and
// sorted, SSD level-1), records what the database should contain, then
// closes. Phase 2 reopens — replaying the WAL, re-attaching PM tables from
// the pool's persistent object directory and level-1 SSTables from the
// manifest — and verifies every key. The PM pool is the interesting part:
// level-0 contents survive restarts *without* being rebuilt from the WAL,
// which is exactly why the paper puts level-0 on persistent memory.

#include <cstdio>
#include <map>
#include <memory>

#include "core/db.h"

using namespace pmblade;  // NOLINT: example brevity

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::pmblade::Status _s = (expr);                            \
    if (!_s.ok()) {                                           \
      fprintf(stderr, "%s failed: %s\n", #expr,               \
              _s.ToString().c_str());                         \
      return 1;                                               \
    }                                                         \
  } while (0)

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "/tmp/pmblade_recovery";
  Options options;
  options.memtable_bytes = 64 << 10;
  options.pm_pool_capacity = 32 << 20;
  options.partition_boundaries = {"m"};

  CHECK_OK(DestroyDB(options, path));
  std::map<std::string, std::string> expected;

  {
    std::unique_ptr<DB> db;
    CHECK_OK(DB::Open(options, path, &db));

    // Layer 1: level-1 on SSD.
    for (int i = 0; i < 50; ++i) {
      std::string key = "cold" + std::to_string(i);
      expected[key] = "ssd-resident";
      CHECK_OK(db->Put(WriteOptions(), key, "ssd-resident"));
    }
    CHECK_OK(db->CompactToLevel1(false));

    // Layer 2: sorted PM level-0 (flushed + internally compacted).
    for (int i = 0; i < 50; ++i) {
      std::string key = "warm" + std::to_string(i);
      expected[key] = "pm-sorted";
      CHECK_OK(db->Put(WriteOptions(), key, "pm-sorted"));
    }
    CHECK_OK(db->FlushMemTable());
    CHECK_OK(db->CompactLevel0());

    // Layer 3: unsorted PM level-0 (flushed only).
    for (int i = 0; i < 50; ++i) {
      std::string key = "recent" + std::to_string(i);
      expected[key] = "pm-unsorted";
      CHECK_OK(db->Put(WriteOptions(), key, "pm-unsorted"));
    }
    CHECK_OK(db->FlushMemTable());

    // Layer 4: WAL only (never flushed) + an overwrite and a delete for
    // spice.
    for (int i = 0; i < 50; ++i) {
      std::string key = "hot" + std::to_string(i);
      expected[key] = "wal-only";
      CHECK_OK(db->Put(WriteOptions(), key, "wal-only"));
    }
    expected["warm7"] = "overwritten-in-wal";
    CHECK_OK(db->Put(WriteOptions(), "warm7", "overwritten-in-wal"));
    expected.erase("cold13");
    CHECK_OK(db->Delete(WriteOptions(), "cold13"));

    printf("phase 1: wrote %zu live keys across WAL / PM-unsorted / "
           "PM-sorted / SSD\n",
           expected.size());
    // db closes here; a real crash would lose nothing either — the WAL
    // holds layer 4 and the PM pool + manifest hold the rest.
  }

  {
    std::unique_ptr<DB> db;
    CHECK_OK(DB::Open(options, path, &db));
    printf("phase 2: reopened; verifying...\n");

    size_t verified = 0;
    for (const auto& [key, want] : expected) {
      std::string got;
      Status s = db->Get(ReadOptions(), key, &got);
      if (!s.ok() || got != want) {
        fprintf(stderr, "MISMATCH %s: got '%s' (%s), want '%s'\n",
                key.c_str(), got.c_str(), s.ToString().c_str(),
                want.c_str());
        return 1;
      }
      ++verified;
    }
    std::string gone;
    if (!db->Get(ReadOptions(), "cold13", &gone).IsNotFound()) {
      fprintf(stderr, "deleted key resurrected!\n");
      return 1;
    }

    // Scans also see exactly the expected set.
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    size_t scanned = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++scanned;
    CHECK_OK(it->status());

    printf("verified %zu point reads, %zu scanned entries — all intact\n",
           verified, scanned);
    uint64_t l0 = 0, l1 = 0;
    db->GetProperty("pmblade.lsm.l0_bytes", &l0);
    db->GetProperty("pmblade.lsm.l1_bytes", &l1);
    printf("recovered layout: %llu B in PM level-0, %llu B in SSD "
           "level-1\n",
           (unsigned long long)l0, (unsigned long long)l1);
  }
  printf("OK\n");
  return 0;
}

// Quickstart: open a PM-Blade database, write, read, scan, inspect.
//
//   ./quickstart [db_path]
//
// Demonstrates the core public API: DB::Open with Options, Put/Get/Delete,
// WriteBatch, iterators, snapshots, manual flush/compaction and properties.

#include <cstdio>
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
  std::string path = argc > 1 ? argv[1] : "/tmp/pmblade_quickstart";

  // Start fresh for the demo.
  Options options;
  CHECK_OK(DestroyDB(options, path));

  // A small configuration: 1 MiB memtable, 64 MiB simulated PM pool for
  // level-0, four range partitions over lowercase keys.
  options.memtable_bytes = 1 << 20;
  options.pm_pool_capacity = 64 << 20;
  options.partition_boundaries = {"g", "n", "t"};

  std::unique_ptr<DB> db;
  CHECK_OK(DB::Open(options, path, &db));
  printf("opened %s\n", path.c_str());

  // ---- basic writes and reads ----
  CHECK_OK(db->Put(WriteOptions(), "apple", "red"));
  CHECK_OK(db->Put(WriteOptions(), "banana", "yellow"));
  CHECK_OK(db->Put(WriteOptions(), "plum", "purple"));

  std::string value;
  CHECK_OK(db->Get(ReadOptions(), "banana", &value));
  printf("banana -> %s\n", value.c_str());

  // ---- atomic batch ----
  WriteBatch batch;
  batch.Put("cherry", "red");
  batch.Delete("apple");
  CHECK_OK(db->Write(WriteOptions(), &batch));
  Status s = db->Get(ReadOptions(), "apple", &value);
  printf("apple after delete: %s\n", s.ToString().c_str());

  // ---- snapshot isolation ----
  uint64_t snapshot = db->GetSnapshot();
  CHECK_OK(db->Put(WriteOptions(), "banana", "brown"));
  ReadOptions at_snapshot;
  at_snapshot.snapshot = snapshot;
  CHECK_OK(db->Get(at_snapshot, "banana", &value));
  printf("banana at snapshot -> %s (now: ", value.c_str());
  CHECK_OK(db->Get(ReadOptions(), "banana", &value));
  printf("%s)\n", value.c_str());
  db->ReleaseSnapshot(snapshot);

  // ---- scan ----
  printf("full scan:\n");
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    printf("  %s -> %s\n", it->key().ToString().c_str(),
           it->value().ToString().c_str());
  }
  CHECK_OK(it->status());
  it.reset();

  // ---- maintenance: flush to PM level-0, compact, inspect ----
  CHECK_OK(db->FlushMemTable());       // memtable -> PM tables
  CHECK_OK(db->CompactLevel0());       // internal compaction (on PM)
  CHECK_OK(db->CompactToLevel1(true)); // major compaction (Eq. 3 retention)

  uint64_t l0 = 0, l1 = 0, pm_used = 0;
  db->GetProperty("pmblade.lsm.l0_bytes", &l0);
  db->GetProperty("pmblade.lsm.l1_bytes", &l1);
  db->GetProperty("pmblade.pm.used_bytes", &pm_used);
  printf("level-0: %llu B on PM (%llu B pool used), level-1: %llu B on "
         "SSD\n",
         (unsigned long long)l0, (unsigned long long)pm_used,
         (unsigned long long)l1);
  std::string stats;
  db->GetProperty("pmblade.stats", &stats);
  printf("stats:\n%s\n", stats.c_str());

  db.reset();
  printf("done; data persists at %s (reopen with the same Options)\n",
         path.c_str());
  return 0;
}

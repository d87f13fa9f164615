// Order tracking: the paper's motivating scenario as a runnable example.
//
//   ./order_tracking [db_path]
//
// Models a slice of an online-retail backend on PM-Blade:
//   * an orders table keyed "orders|<order-id>"
//   * a secondary index "idx_user|<user-id>|<order-id>" -> order-id
//   * an order's lifecycle: placed -> paid -> packed -> delivering -> done
//     (hot data: many updates shortly after insert)
//   * queries: "latest orders of a user" = index scan + point reads
//
// Shows how the hot order rows and the small-but-hot index table stay in
// the PM level-0 while finished orders age out to the SSD.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/db.h"
#include "util/random.h"

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

namespace {

std::string OrderKey(uint64_t order_id) {
  char buf[40];
  snprintf(buf, sizeof(buf), "orders|%010llu",
           (unsigned long long)order_id);
  return buf;
}

std::string UserIndexKey(uint64_t user_id, uint64_t order_id) {
  char buf[64];
  snprintf(buf, sizeof(buf), "idx_user|%06llu|%010llu",
           (unsigned long long)user_id, (unsigned long long)order_id);
  return buf;
}

std::string OrderRow(uint64_t user_id, const char* status) {
  char buf[128];
  snprintf(buf, sizeof(buf),
           "user=%06llu;status=%s;items=3;total=42.50;city=shanghai",
           (unsigned long long)user_id, status);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "/tmp/pmblade_orders";
  Options options;
  CHECK_OK(DestroyDB(options, path));
  options.memtable_bytes = 256 << 10;
  options.pm_pool_capacity = 64 << 20;
  // Partition the keyspace: index table | orders table (the orders range is
  // further split so hot recent orders separate from cold old ones).
  options.partition_boundaries = {"idx_user|", "orders|",
                                  OrderKey(1500)};
  // A small PM retention budget so the demo's major compaction visibly
  // keeps only the hottest partitions in PM (Eq. 3).
  options.cost.tau_t = 96 << 10;

  std::unique_ptr<DB> db;
  CHECK_OK(DB::Open(options, path, &db));

  // ---- order lifecycle: insert + status updates (hot data) ----
  const char* kLifecycle[] = {"placed", "paid", "packed", "delivering",
                              "done"};
  Random rng(2026);
  const int kOrders = 2000;
  const int kUsers = 100;
  printf("placing %d orders for %d users...\n", kOrders, kUsers);
  for (uint64_t order = 0; order < kOrders; ++order) {
    uint64_t user = rng.Uniform(kUsers);
    WriteBatch batch;  // row + index entry commit atomically
    batch.Put(OrderKey(order), OrderRow(user, kLifecycle[0]));
    batch.Put(UserIndexKey(user, order), OrderKey(order));
    CHECK_OK(db->Write(WriteOptions(), &batch));

    // Recent orders progress through their lifecycle (frequent updates to
    // hot rows — the write-amplification hazard PM-Blade absorbs on PM).
    if (order >= 10) {
      uint64_t hot = order - rng.Uniform(10);
      std::string row;
      if (db->Get(ReadOptions(), OrderKey(hot), &row).ok()) {
        int next_stage = 1 + static_cast<int>(rng.Uniform(4));
        // The row's user id is at a fixed offset in this demo encoding.
        uint64_t hot_user = strtoull(row.c_str() + 5, nullptr, 10);
        CHECK_OK(db->Put(WriteOptions(), OrderKey(hot),
                         OrderRow(hot_user, kLifecycle[next_stage])));
      }
    }
  }

  // ---- query: a user's latest orders via the secondary index ----
  uint64_t user = 42;
  printf("\nlatest orders of user %06llu:\n", (unsigned long long)user);
  std::string prefix = "idx_user|000042|";
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  std::vector<std::string> order_keys;
  for (it->Seek(prefix); it->Valid() && it->key().starts_with(prefix);
       it->Next()) {
    order_keys.push_back(it->value().ToString());
  }
  CHECK_OK(it->status());
  it.reset();
  int shown = 0;
  for (auto rit = order_keys.rbegin();
       rit != order_keys.rend() && shown < 5; ++rit, ++shown) {
    std::string row;
    CHECK_OK(db->Get(ReadOptions(), *rit, &row));
    printf("  %s: %s\n", rit->c_str(), row.c_str());
  }
  printf("  (%zu orders total for this user)\n", order_keys.size());

  // ---- age out cold data; hot partitions stay in PM (Eq. 3) ----
  CHECK_OK(db->FlushMemTable());
  CHECK_OK(db->CompactToLevel1(/*respect_cost_model=*/true));
  uint64_t l0 = 0, l1 = 0;
  db->GetProperty("pmblade.lsm.l0_bytes", &l0);
  db->GetProperty("pmblade.lsm.l1_bytes", &l1);
  printf("\nafter cost-based major compaction: %llu B retained in PM "
         "level-0, %llu B on SSD\n",
         (unsigned long long)l0, (unsigned long long)l1);
  std::string stats;
  db->GetProperty("pmblade.stats", &stats);
  printf("read sources so far: %s\n", stats.c_str());
  return 0;
}

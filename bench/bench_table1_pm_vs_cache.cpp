// Table I — "Comparation of query latency": point-lookup latency of a
// binary-searchable table on PM vs an SSTable served from the DRAM block
// cache vs an SSTable read from the SSD, over 1/2/4/8 tables.
//
// Paper's shape: PM is close to the cache (3.3 vs 2.6 us at 1 table) and
// ~7x faster than the SSD (22.3 us); latency grows with the table count for
// all three since each table must be probed in turn.
//
// Flags: --entries (total entries, default 40000), --lookups (default 2000).

#include <memory>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/workload.h"
#include "compaction/minor_compaction.h"
#include "env/filename.h"
#include "env/sim_env.h"
#include "memtable/internal_key.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table.h"
#include "pmtable/pm_table_builder.h"
#include "sstable/ssd_l0_table.h"
#include "sstable/table_builder.h"
#include "util/bloom.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, kTypeValue);
  return out;
}

struct Setup {
  std::unique_ptr<PmPool> pool;
  std::unique_ptr<SsdModel> model;
  std::unique_ptr<SimEnv> sim;
  std::unique_ptr<BlockCache> cache;
  InternalKeyComparator icmp{BytewiseComparator()};
  BloomFilterPolicy policy{10};
  std::string dir;
};

double MeasureLookups(const std::vector<L0TableRef>& tables,
                      const InternalKeyComparator& icmp,
                      const std::vector<std::string>& probe_keys) {
  Clock* clock = SystemClock();
  uint64_t total = 0;
  for (const auto& user_key : probe_keys) {
    LookupKey lkey(user_key, kMaxSequenceNumber);
    const uint64_t start = clock->NowNanos();
    std::string value;
    bool found = false;
    Status rs;
    for (const auto& table : tables) {
      Status s = L0TableGet(*table, icmp, lkey, &value, &found, &rs);
      if (!s.ok()) {
        fprintf(stderr, "lookup error: %s\n", s.ToString().c_str());
        exit(1);
      }
      if (found) break;
    }
    total += clock->NowNanos() - start;
  }
  return static_cast<double>(total) / probe_keys.size() / 1000.0;  // us
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t entries = flags.Int("entries", 40000);
  const uint64_t lookups = flags.Int("lookups", 2000);

  Setup setup;
  setup.dir = "/tmp/pmblade_bench_table1";
  PosixEnv()->RemoveDirRecursively(setup.dir);
  PosixEnv()->CreateDir(setup.dir);

  PmPoolOptions popts;
  popts.capacity = 512ull << 20;
  Status s = PmPool::Open(setup.dir + "/pool.pm", popts, &setup.pool);
  if (!s.ok()) {
    fprintf(stderr, "pool: %s\n", s.ToString().c_str());
    return 1;
  }

  SsdModelOptions mopts;  // defaults: ~25 us random read
  setup.model.reset(new SsdModel(mopts));
  setup.sim.reset(new SimEnv(PosixEnv(), setup.model.get()));
  setup.cache.reset(new BlockCache(256 << 20));

  TablePrinter table({"The number of tables", "1", "2", "4", "8"});
  std::vector<int> counts = {1, 2, 4, 8};

  ValueGenerator values(100);
  std::vector<std::string> pm_rows, cached_rows, ssd_rows;

  std::vector<std::string> row_pm = {"Table on PM"};
  std::vector<std::string> row_cache = {"SSTable in cache"};
  std::vector<std::string> row_ssd = {"SSTable in SSD"};

  for (int count : counts) {
    // Build `count` tables splitting `entries` keys; probe random keys.
    uint64_t per_table = entries / count;

    std::vector<L0TableRef> pm_tables, cached_tables, ssd_tables;
    Random rnd(1);
    std::vector<std::string> probe_keys;

    for (int t = 0; t < count; ++t) {
      PmTableBuilder pm_builder(setup.pool.get(), PmTableOptions{});

      L0FactoryOptions fopts;
      fopts.layout = L0Layout::kSstable;
      fopts.icmp = &setup.icmp;
      fopts.filter_policy = &setup.policy;
      fopts.block_cache = setup.cache.get();
      fopts.ssd_dir = setup.dir;
      // Two factories sharing files is fine: build once, open twice (one
      // through the cache-backed SimEnv-free path for the "cached" case and
      // one through the SSD model for the "SSD" case).
      static L0TableFactory sst_factory(fopts, nullptr, PosixEnv());

      // Interleave key indices so the tables fully overlap in range (as
      // unsorted level-0 tables do): table t holds keys i ≡ t (mod count).
      std::vector<std::pair<std::string, std::string>> rows;
      for (uint64_t i = 0; i < per_table; ++i) {
        char key[40];
        snprintf(key, sizeof(key),
                 "tbl|key%012llu",
                 static_cast<unsigned long long>(i * count + t));
        rows.emplace_back(key, values.For(i));
      }
      for (auto& [k, v] : rows) {
        pm_builder.Add(IKey(k, 10), v);
      }
      std::shared_ptr<PmTable> pm_table;
      s = pm_builder.Finish(&pm_table);
      if (!s.ok()) {
        fprintf(stderr, "pm build: %s\n", s.ToString().c_str());
        return 1;
      }
      pm_tables.push_back(pm_table);

      // SSTable file for both cached and SSD variants.
      uint64_t file_number = sst_factory.NextFileNumber();
      std::string path = SstFileName(setup.dir, file_number);
      std::unique_ptr<WritableFile> file;
      PosixEnv()->NewWritableFile(path, &file);
      TableBuilderOptions topts;
      topts.comparator = &setup.icmp;
      topts.filter_policy = &setup.policy;
      TableBuilder builder(topts, file.get());
      for (auto& [k, v] : rows) {
        builder.Add(IKey(k, 10), v);
      }
      builder.Finish();
      file->Sync();
      file->Close();

      // Cached variant: plain posix file + big block cache (warmed below).
      TableReaderOptions ropts;
      ropts.comparator = &setup.icmp;
      ropts.filter_policy = &setup.policy;
      ropts.block_cache = setup.cache.get();
      ropts.file_number = file_number;
      std::shared_ptr<SsdL0Table> cached;
      s = SsdL0Table::Open(PosixEnv(), path, file_number, ropts, &cached);
      if (!s.ok()) {
        fprintf(stderr, "cached open: %s\n", s.ToString().c_str());
        return 1;
      }
      cached_tables.push_back(cached);

      // SSD variant: reads through the latency model, no cache.
      TableReaderOptions sopts;
      sopts.comparator = &setup.icmp;
      sopts.filter_policy = &setup.policy;
      sopts.block_cache = nullptr;
      sopts.file_number = file_number + 1000000;
      std::shared_ptr<SsdL0Table> on_ssd;
      s = SsdL0Table::Open(setup.sim.get(), path, file_number, sopts,
                           &on_ssd);
      if (!s.ok()) {
        fprintf(stderr, "ssd open: %s\n", s.ToString().c_str());
        return 1;
      }
      ssd_tables.push_back(on_ssd);
    }

    probe_keys.clear();
    for (uint64_t i = 0; i < lookups; ++i) {
      char key[40];
      snprintf(key, sizeof(key), "tbl|key%012llu",
               static_cast<unsigned long long>(rnd.Uniform(entries)));
      probe_keys.push_back(key);
    }

    // Warm the cache fully for the "cache" variant.
    for (const auto& t : cached_tables) {
      std::unique_ptr<Iterator> it(t->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
      }
    }

    row_pm.push_back(
        TablePrinter::Fmt(MeasureLookups(pm_tables, setup.icmp, probe_keys),
                          1) + " us");
    row_cache.push_back(
        TablePrinter::Fmt(
            MeasureLookups(cached_tables, setup.icmp, probe_keys), 1) +
        " us");
    row_ssd.push_back(
        TablePrinter::Fmt(MeasureLookups(ssd_tables, setup.icmp, probe_keys),
                          1) + " us");

    for (auto& t : pm_tables) t->Destroy();
  }

  // Assemble in paper's row order. Header already has counts; rows carry
  // the measured latencies.
  TablePrinter out({"structure", "1 table", "2 tables", "4 tables",
                    "8 tables"});
  out.AddRow(row_pm);
  out.AddRow(row_cache);
  out.AddRow(row_ssd);
  out.Print("Table I: query latency (avg per lookup)");

  printf("\npaper shape: PM ~ cache (within ~1.5x), SSD >> both; all grow "
         "with table count\n");
  PosixEnv()->RemoveDirRecursively(setup.dir);
  return 0;
}

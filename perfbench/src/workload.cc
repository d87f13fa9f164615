#include "workload.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t z) {
  // The SplitMix64 finalizer: a bijection on 64-bit integers.
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint32_t Fnv1a32(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

constexpr char kHex[] = "0123456789abcdef";

void PutHex(uint64_t v, int digits, char* out) {
  for (int i = digits - 1; i >= 0; --i) {
    out[i] = kHex[v & 0xf];
    v >>= 4;
  }
}

bool GetHex(const char* in, int digits, uint64_t* v) {
  uint64_t r = 0;
  for (int i = 0; i < digits; ++i) {
    const char c = in[i];
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    r = (r << 4) | static_cast<uint64_t>(d);
  }
  *v = r;
  return true;
}

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

constexpr size_t kKeyBytes = 17;  // "k" + 16 hex digits
// value = key '|' version(8 hex) '|' filler '|' checksum(8 hex)
constexpr size_t kValueOverhead = kKeyBytes + 1 + 8 + 1 + 1 + 8;

}  // namespace

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix64(state_);
}

ScrambledZipfian::ScrambledZipfian(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = Zeta(n_, theta_);
  const double zeta2 = Zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ScrambledZipfian::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(double(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  return Mix64(rank + 1) % n_;
}

uint64_t KeyNumberOf(uint64_t id) { return Mix64(id + 1); }

std::string KeyName(uint64_t id) {
  std::string key(kKeyBytes, 'k');
  PutHex(KeyNumberOf(id), 16, &key[1]);
  return key;
}

uint64_t KeyNumber(const pmblade::Slice& key) {
  uint64_t v = 0;
  if (key.size() != kKeyBytes || key.data()[0] != 'k' ||
      !GetHex(key.data() + 1, 16, &v)) {
    return 0;
  }
  return v;
}

std::string MakeValue(const std::string& key, uint32_t version, size_t size) {
  if (size < kValueOverhead) size = kValueOverhead;
  std::string v(size, '.');
  std::memcpy(&v[0], key.data(), key.size());
  v[kKeyBytes] = '|';
  PutHex(version, 8, &v[kKeyBytes + 1]);
  v[kKeyBytes + 9] = '|';
  Rng filler(KeyNumber(key) ^ (uint64_t{version} << 40));
  uint64_t bits = 0;
  for (size_t i = kKeyBytes + 10; i + 9 < size; ++i) {
    if ((i & 15) == 0) bits = filler.Next();
    v[i] = kHex[(bits >> ((i & 15) * 4)) & 0xf];
  }
  v[size - 9] = '|';
  PutHex(Fnv1a32(v.data(), size - 8), 8, &v[size - 8]);
  return v;
}

bool ParseValue(const std::string& key, const pmblade::Slice& value,
                uint32_t* version) {
  const size_t n = value.size();
  const char* d = value.data();
  if (n < kValueOverhead || key.size() != kKeyBytes ||
      std::memcmp(d, key.data(), kKeyBytes) != 0 || d[kKeyBytes] != '|' ||
      d[kKeyBytes + 9] != '|' || d[n - 9] != '|') {
    return false;
  }
  uint64_t sum = 0, ver = 0;
  if (!GetHex(d + n - 8, 8, &sum) || sum != Fnv1a32(d, n - 8) ||
      !GetHex(d + kKeyBytes + 1, 8, &ver)) {
    return false;
  }
  *version = static_cast<uint32_t>(ver);
  return true;
}

const char* OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kGetHit: return "get";
    case OpClass::kGetMiss: return "miss";
    case OpClass::kSet: return "set";
    case OpClass::kMGet: return "mget";
    case OpClass::kMSet: return "mset";
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec w;
      w.name = "pm_hot_read";
      w.preload_keys = 100000;
      w.keyspace = 100000;
      w.w_get = 0.95;
      w.w_set = 0.05;
      w.ops_per_conn = 40000;
      w.flush_and_sort_l0 = true;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "ssd_cold_read";
      w.preload_keys = 150000;
      w.keyspace = 300000;  // ids past the preload never exist: half miss
      w.dist = KeyDist::kUniform;
      w.w_get = 1.0;
      w.ops_per_conn = 40000;
      w.move_to_level1 = true;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "ingest_churn";
      w.preload_keys = 50000;
      w.keyspace = 400000;
      w.w_get = 0.10;
      w.w_set = 0.90;
      w.ops_per_conn = 20000;
      w.memtable_bytes = 1 << 20;
      w.tau_m = 8ull << 20;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "sharded_txn";
      w.shards = 2;
      w.preload_keys = 100000;
      w.keyspace = 125000;  // a fifth of the reads miss
      w.dist = KeyDist::kUniform;
      w.w_get = 0.40;
      w.w_set = 0.20;
      w.w_mget = 0.20;
      w.w_mset = 0.20;
      w.ops_per_conn = 20000;
      w.memtable_bytes = 1 << 20;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

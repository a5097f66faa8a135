// Workload definitions and the seeded operation scripts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.h"
#include "func/query.h"

namespace rcbench {
namespace {

// Sizes are chosen so that a run of every workload fits the benchmark's
// time budget; see perfbench/README.md for the measured sizing.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "explore", .rows = 100000, .clients = 2, .partitioned = false,
       .templates = false, .write_frac = 0.0, .warm_windows = 2,
       .window_ops = 1000, .timed_ops_per_s = 360},
      {.name = "ingest", .rows = 100000, .clients = 2, .partitioned = false,
       .templates = true, .write_frac = 0.3, .warm_windows = 2,
       .window_ops = 0, .timed_ops_per_s = 0},
      {.name = "scatter", .rows = 100000, .clients = 1, .partitioned = true,
       .templates = false, .write_frac = 0.0, .warm_windows = 2,
       .window_ops = 1000, .timed_ops_per_s = 800},
  };
  return kWorkloads;
}

/// Appends `values` comma-separated, each printed with `fmt`.
void AppendList(std::string* out, const std::vector<double>& values,
                const char* fmt) {
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    std::snprintf(buf, sizeof(buf), fmt, values[i]);
    *out += buf;
  }
}

/// A query in wire terms; `kind` is linear, l1 or dist.
struct QueryShape {
  int k = 10;
  std::string kind;
  std::vector<double> w;
  std::vector<double> t;
  std::vector<std::pair<int, int>> where;

  std::string Request() const {
    std::string s = "QUERY k=" + std::to_string(k) + " order=" + kind + ":";
    AppendList(&s, w, "%.9g");
    if (!t.empty()) {
      s += '@';
      AppendList(&s, t, "%.6f");
    }
    for (size_t i = 0; i < where.size(); ++i) {
      s += i == 0 ? " where=" : ",";
      s += std::to_string(where[i].first) + ":" +
           std::to_string(where[i].second);
    }
    return s;
  }
};

/// Continuous random weights over linear, l1 and dist; 0-3 predicates on
/// distinct dimensions; k in {10, 100}. Half of all queries carry a
/// dimension-0 predicate (E[#predicates] / S = 1.5 / 3).
QueryShape RandomShape(rankcube::Rng& rng) {
  static const char* kKinds[] = {"linear", "l1", "dist"};
  QueryShape q;
  q.k = rng.UniformInt(2) == 0 ? 10 : 100;
  q.kind = kKinds[rng.UniformInt(3)];
  for (int d = 0; d < kRankDims; ++d) q.w.push_back(rng.Uniform(0.05, 1.0));
  if (q.kind != "linear") {
    for (int d = 0; d < kRankDims; ++d) q.t.push_back(rng.Uniform01());
  }
  int npred = static_cast<int>(rng.UniformInt(kSelDims + 1));
  std::vector<int> dims = {0, 1, 2};
  for (int i = 0; i < npred; ++i) {
    std::swap(dims[i], dims[i + rng.UniformInt(kSelDims - i)]);
    q.where.push_back(
        {dims[i], static_cast<int>(rng.UniformInt(kCardinality))});
  }
  std::sort(q.where.begin(), q.where.end());
  return q;
}

/// The fixed template pool of the ingest workload (same on every run).
const std::vector<QueryShape>& TemplatePool() {
  static const std::vector<QueryShape> kPool = [] {
    rankcube::Rng rng(0x9E3779B9);
    std::vector<QueryShape> pool;
    for (int i = 0; i < 3000; ++i) pool.push_back(RandomShape(rng));
    return pool;
  }();
  return kPool;
}

/// Zipf(1) draw from the pool: 70% exact repeats, 20% repeats with the
/// weights perturbed by up to 0.1% (certified near-duplicate reuse), 10%
/// unique queries.
std::string TemplateQuery(rankcube::Rng& rng) {
  double u = rng.Uniform01();
  if (u < 0.10) return RandomShape(rng).Request();
  QueryShape q = TemplatePool()[rng.Zipf(TemplatePool().size(), 1.0)];
  if (u < 0.30) {
    for (double& w : q.w) w *= 1.0 + rng.Uniform(-0.001, 0.001);
  }
  return q.Request();
}

std::string InsertRequest(rankcube::Rng& rng) {
  std::string s = "INSERT sel=";
  for (int d = 0; d < kSelDims; ++d) {
    if (d > 0) s += ',';
    s += std::to_string(rng.UniformInt(kCardinality));
  }
  s += " rank=";
  std::vector<double> rank(kRankDims);
  for (double& r : rank) r = rng.Uniform01();
  AppendList(&s, rank, "%.6f");
  return s;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

rankcube::SyntheticSpec DataSpec(const WorkloadSpec& w) {
  rankcube::SyntheticSpec spec;
  spec.num_rows = w.rows;
  spec.num_sel_dims = kSelDims;
  spec.cardinality = kCardinality;
  spec.num_rank_dims = kRankDims;
  spec.seed = kDataSeed;
  return spec;
}

std::vector<PartitionSpec> Partitions(const WorkloadSpec& w) {
  if (!w.partitioned) return {};
  return {{"p0", 0, 5}, {"p1", 5, 10}, {"p2", 10, 15}, {"p3", 15, 20}};
}

std::vector<std::string> DaemonArgs(const WorkloadSpec& w,
                                    const std::string& data_dir) {
  std::vector<std::string> args = {
      "--port=0",
      "--rows=" + std::to_string(w.rows),
      "--sel_dims=" + std::to_string(kSelDims),
      "--cardinality=" + std::to_string(kCardinality),
      "--rank_dims=" + std::to_string(kRankDims),
      "--seed=" + std::to_string(kDataSeed),
      "--latency_us=" + std::to_string(kLatencyUs),
      "--cache_pages=" + std::to_string(kCachePages),
      "--cache_mb=" + std::to_string(kCacheMb),
      "--data_dir=" + data_dir,
      std::string("--fsync=") + kFsync,
  };
  for (const PartitionSpec& p : Partitions(w)) {
    args.push_back("--partition=" + p.name + ":" + std::to_string(p.lo) + ":" +
                   std::to_string(p.hi));
  }
  if (w.partitioned) args.push_back("--partition_dim=0");
  return args;
}

uint64_t WarmSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE;
}

OpStream::OpStream(const WorkloadSpec& w, uint64_t seed, int client,
                   double write_frac)
    : w_(&w),
      rng_(seed ^ (0xD1B54A32D192ED03ULL * static_cast<uint64_t>(client + 1))),
      write_frac_(write_frac) {}

Op OpStream::Next() {
  Op op;
  if (write_frac_ > 0.0 && rng_.Uniform01() < write_frac_) {
    // INSERT:DELETE = 3:1, deleting only rows this client inserted.
    if (rng_.UniformInt(4) == 0 && inserts_ > deletes_) {
      op.kind = OpKind::kDelete;
      ++deletes_;
    } else {
      op.kind = OpKind::kInsert;
      op.request = InsertRequest(rng_);
      ++inserts_;
    }
    return op;
  }
  op.kind = OpKind::kQuery;
  op.request =
      w_->templates ? TemplateQuery(rng_) : RandomShape(rng_).Request();
  return op;
}

std::vector<std::string> PlanSample(const WorkloadSpec& w, uint64_t seed) {
  std::vector<std::string> out;
  for (int c = 0; c < w.clients; ++c) {
    for (auto [phase_seed, n] : {std::pair<uint64_t, int>{kTimedSeed, 1000},
                                 {WarmSeed(seed), 250}}) {
      OpStream stream(w, phase_seed, c, w.write_frac);
      for (int i = 0; i < n; ++i) {
        Op op = stream.Next();
        if (op.kind == OpKind::kQuery) out.push_back(op.request);
      }
    }
  }
  return out;
}

std::vector<std::string> PlannedEngines(const std::vector<std::string>& lines) {
  std::set<std::string> keys;
  for (const std::string& line : lines) {
    size_t at = std::string::npos;
    if (line.rfind("plan: ", 0) == 0) {
      at = 6;
    } else if (size_t e = line.find(" engine="); e != std::string::npos) {
      at = e + 8;
    }
    if (at == std::string::npos) continue;
    size_t end = line.find_first_of(", ", at);
    std::string key =
        line.substr(at, end == std::string::npos ? end : end - at);
    if (!key.empty() && key[0] != '<') keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

StatMap ParseKeyValues(const std::vector<std::string>& lines) {
  StatMap out;
  for (const std::string& line : lines) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

double StatNum(const StatMap& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : std::atof(it->second.c_str());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace rcbench

// Shared declarations of the rankcubed benchmark program (rcbench).
//
// rcbench starts the real `rankcubed` daemon, replays seeded operation
// scripts against it over TCP in a closed loop, checks the answers, and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
// See perfbench/README.md for the workloads and the metric list.
#ifndef RCBENCH_BENCH_H_
#define RCBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/synthetic.h"

namespace rcbench {

// Daemon settings every workload runs with: rankcubed's shipped defaults.
// They are written into every output header.
inline constexpr uint32_t kLatencyUs = 100;
inline constexpr uint64_t kCachePages = 4096;
inline constexpr uint64_t kCacheMb = 64;
inline constexpr const char* kFsync = "batch";
// Generator flags of the relation (S=3, C=20, R=2, uniform ranks).
inline constexpr int kSelDims = 3;
inline constexpr int kCardinality = 20;
inline constexpr int kRankDims = 2;
inline constexpr uint64_t kDataSeed = 42;
// Acknowledged writes between two operator COMPACTs (one compaction cycle).
inline constexpr uint64_t kCompactEvery = 250;
// Read-only workloads end with this many writes on one connection, then
// one COMPACT, so that every workload reports write and compaction latency.
inline constexpr uint64_t kTailWrites = 1000;
// SIGKILL + restart rounds behind recovery_s (the median is reported).
inline constexpr int kRestarts = 15;
// Set-ups per run behind setup_s (the median is reported).
inline constexpr int kSetups = 3;
// A --trace 0 attempt whose timed phase lost more than this share of the
// host's CPU time to the hypervisor (steal in /proc/stat) is discarded and
// the run starts over, at most kAttempts times in all and only while the
// run is younger than kRetryBeforeS (an attempt takes 35-50 s, so the
// run stays within its time limit); otherwise the run is rejected.
inline constexpr double kMaxStealFrac = 0.1;
inline constexpr int kAttempts = 3;
inline constexpr double kRetryBeforeS = 60;

struct WorkloadSpec {
  std::string name;
  uint64_t rows = 0;
  int clients = 2;           ///< timed connections (closed loop each)
  bool partitioned = false;  ///< 4 range partitions on dimension 0
  bool templates = false;    ///< Zipf draws from a template pool
  double write_frac = 0.0;   ///< share of client ops that are writes
  /// Warm-up: read-only workloads run `warm_windows` windows of
  /// `window_ops` ops; write workloads run `warm_windows` compaction cycles.
  int warm_windows = 0;
  int window_ops = 0;
  /// Timed ops per client and second of --seconds (read-only workloads);
  /// fixes the timed script's length. Sized on the seed so that the
  /// script lasts about 2.2 (explore) and 2 (scatter) times --seconds: an
  /// 8 s script gave p99 spreads (IQR over median, ten runs) of up to 0.29
  /// and 0.20, because the tail follows slow swings in which pages the
  /// buffer cache holds (see perfbench/README.md).
  double timed_ops_per_s = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

rankcube::SyntheticSpec DataSpec(const WorkloadSpec& w);

struct PartitionSpec {
  std::string name;
  int32_t lo = 0;
  int32_t hi = 0;
};
/// The scatter workload's range partitions on dimension 0 (empty otherwise).
std::vector<PartitionSpec> Partitions(const WorkloadSpec& w);

/// rankcubed flags (without the program name) for `w` on `data_dir`.
std::vector<std::string> DaemonArgs(const WorkloadSpec& w,
                                    const std::string& data_dir);

// --- operation scripts (scripts.cc) ---------------------------------------

enum class OpKind { kQuery, kInsert, kDelete };

/// One scripted client operation. `request` is the full wire payload for
/// queries and inserts; a delete names no tid — the client deletes the
/// oldest row it inserted and saw acknowledged.
struct Op {
  OpKind kind = OpKind::kQuery;
  std::string request;
};

/// A client's deterministic operation sequence. Identical (workload, seed,
/// client, write share) give identical sequences, independent of timing.
class OpStream {
 public:
  OpStream(const WorkloadSpec& w, uint64_t seed, int client,
           double write_frac);
  Op Next();

 private:
  const WorkloadSpec* w_;
  rankcube::Rng rng_;
  double write_frac_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// Seeds of the scripts. The timed and tail scripts are the same on every
/// run; only the warm-up script follows --seed.
inline constexpr uint64_t kTimedSeed = 0x71AED5C1;
inline constexpr uint64_t kTailSeed = 0x7A11F00D;
uint64_t WarmSeed(uint64_t seed);

/// The queries set-up plans to find the engines a run routes to: the first
/// queries of every client's timed and warm-up scripts.
std::vector<std::string> PlanSample(const WorkloadSpec& w, uint64_t seed);

/// Engine keys named by EXPLAIN output lines ("plan: <key>, ..." or
/// "... engine=<key> ..." per partition).
std::vector<std::string> PlannedEngines(const std::vector<std::string>& lines);

// --- small helpers ---------------------------------------------------------

using StatMap = std::map<std::string, std::string>;
StatMap ParseKeyValues(const std::vector<std::string>& lines);
double StatNum(const StatMap& m, const std::string& key);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

}  // namespace rcbench

#endif  // RCBENCH_BENCH_H_

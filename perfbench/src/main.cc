// rcbench: the rankcubed benchmark program.
//
//   rcbench --workload <explore|ingest|scatter> --seed <n>
//           --seconds <s> --trace <0|1> --rankcubed <path> --work_dir <dir>
//           [--git_sha <sha>]
//
// One run: set up a fresh durable daemon and build every engine the scripts
// route to, three times (setup_s is the median), warm the last one up with
// the seeded warm script until its caches level off, build any engine the
// whole timed script now plans to, replay the fixed-length timed script in
// a closed loop, check sampled answers against a brute-force top-k, send
// the write tail (read-only workloads), then SIGKILL and restart the daemon
// to check durability and time recovery. An attempt during which the host
// took too much CPU time away starts over. --trace 1 reports per-layer
// counters from STATS deltas, QUERY heads and COMPACT replies, then runs
// the traced in-process replay. The last stdout line is the JSON result.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "daemon.h"
#include "phase.h"
#include "traced_run.h"
#include "wire_run.h"

namespace rcbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string rankcubed;
  std::string work_dir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--rankcubed") {
      a->rankcubed = v;
    } else if (k == "--work_dir") {
      a->work_dir = v;
    } else if (k == "--git_sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->rankcubed.empty() &&
         !a->work_dir.empty() && a->seconds > 0;
}

/// Metrics in output order: name -> (value, unit, samples).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// The daemon and scratch directory of the run in progress, so Reject()
/// can stop and remove them.
Daemon* g_daemon = nullptr;
std::string g_run_dir;

/// A run that cannot be trusted: say why and exit without a result.
[[noreturn]] void Reject(const std::string& why) {
  if (g_daemon != nullptr) g_daemon->Stop(SIGKILL);
  if (!g_run_dir.empty()) fs::remove_all(g_run_dir);
  std::printf("REJECTED: %s\n", why.c_str());
  std::fprintf(stderr, "rcbench: run rejected: %s\n", why.c_str());
  std::fflush(stdout);
  std::exit(2);
}

double DirSizeMb(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

rankcube::RankCubeClient MustConnect(uint16_t port) {
  auto c = rankcube::RankCubeClient::Connect("127.0.0.1", port);
  if (!c.ok()) Reject("connect: " + c.status().ToString());
  rankcube::ReconnectPolicy no_retry;
  no_retry.enabled = false;
  c.value().set_reconnect_policy(no_retry);
  return std::move(c).value();
}

Counters MustCounters(rankcube::RankCubeClient& conn) {
  auto c = ReadCounters(conn);
  if (!c.ok()) Reject("STATS: " + c.status().ToString());
  return c.value();
}

/// Aggregate CPU time counters of the host (/proc/stat "cpu" line).
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char label[16];
  // user nice system idle iowait irq softirq steal
  double v[8] = {};
  if (std::fscanf(f, "%15s %lf %lf %lf %lf %lf %lf %lf %lf", label, &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9) {
    for (double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Share of the host's CPU time stolen by the hypervisor between `a` and
/// `b` (0 when unknown).
double StealFrac(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

/// Plans `queries` on the daemon with EXPLAIN and builds every engine they
/// route to (in every partition) with a forced query, to a fixed point.
/// Adds the time spent building to `build_s`.
void BuildRoutedEngines(rankcube::RankCubeClient& op,
                        const std::vector<PartitionSpec>& parts,
                        const std::vector<std::string>& queries,
                        std::set<std::string>* engines,
                        std::vector<std::string>* built, double* build_s) {
  auto explain = [&](const std::string& query)
      -> rankcube::Result<std::vector<std::string>> {
    auto r = op.Call("EXPLAIN" + query.substr(5));  // "QUERY ..." args
    if (!r.ok()) return r.status();
    if (!r.value().ok()) {
      return rankcube::Status::Internal("EXPLAIN failed for " + query);
    }
    return r.value().lines;
  };
  auto build = [&](const std::string& e) {
    // A forced query builds the engine first, even if it then declines
    // the query shape.
    Clock::time_point t0 = Clock::now();
    if (parts.empty()) {
      (void)op.Call("QUERY k=10 order=linear:0.5,0.5 engine=" + e);
    }
    for (const PartitionSpec& p : parts) {
      (void)op.Call("QUERY k=10 order=linear:0.5,0.5 where=0:" +
                    std::to_string(p.lo) + " engine=" + e);
    }
    *build_s += SecondsSince(t0);
    return rankcube::Status::OK();
  };
  rankcube::Status s = CloseEngines(queries, explain, build, engines, built);
  if (!s.ok()) Reject(s.ToString());
}

/// Starts a daemon on a fresh `data_dir` and builds every engine the plan
/// sample routes to; returns the daemon and the seconds it took.
std::unique_ptr<Daemon> SetUp(const Args& args, const WorkloadSpec& w,
                              const std::string& data_dir,
                              const std::string& log_path,
                              const std::vector<std::string>& sample,
                              std::set<std::string>* engines,
                              double* seconds) {
  fs::remove_all(data_dir);
  const std::vector<PartitionSpec> parts = Partitions(w);
  Clock::time_point start = Clock::now();
  auto started =
      Daemon::Start(args.rankcubed, DaemonArgs(w, data_dir), log_path, 120);
  if (!started.ok()) Reject(started.status().ToString());
  std::unique_ptr<Daemon> daemon = std::move(started).value();
  g_daemon = daemon.get();
  rankcube::RankCubeClient op = MustConnect(daemon->port());
  engines->clear();
  double build_s = 0;
  BuildRoutedEngines(op, parts, sample, engines, nullptr, &build_s);
  Counters built = MustCounters(op);
  *seconds = SecondsSince(start);
  const double want_built =
      static_cast<double>(engines->size() * std::max<size_t>(parts.size(), 1));
  if (built.engines_built != want_built) {
    Reject("setup built " + std::to_string(built.engines_built) +
           " engines, want " + std::to_string(want_built));
  }
  return daemon;
}

/// Window statistics read between warm-up windows.
struct Window {
  double hit_frac = 0;     ///< buffer-cache hit fraction within the window
  double cache_bytes = 0;  ///< result-cache bytes at the window's end
  double p50_ms = 0;
};

/// How one attempt at a run ended.
enum class Outcome { kDone, kHostBusy };

/// Attempt number `attempt` of a run that started at `start`: everything
/// after the header, in a fresh `run_dir`. Prints the result and returns
/// kDone, or returns kHostBusy when the host took too much CPU time away
/// during the timed phase and the run may start over (otherwise that
/// rejects the run).
Outcome Attempt(const Args& args, const WorkloadSpec* w,
                const std::string& run_dir, int attempt,
                Clock::time_point start) {
  const std::string data_dir = run_dir + "/data";
  const std::string log_path = run_dir + "/rankcubed.log";

  // --- set-up: spawn -> listening -> every engine the scripts route to,
  // kSetups times on a fresh data dir; the last daemon serves the run ----
  const std::vector<PartitionSpec> parts = Partitions(*w);
  const std::vector<std::string> daemon_args = DaemonArgs(*w, data_dir);
  const std::vector<std::string> sample = PlanSample(*w, args.seed);
  std::vector<double> setups;
  std::set<std::string> engines;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon != nullptr) {
      daemon->Stop(SIGKILL);
      daemon.reset();
      g_daemon = nullptr;
    }
    double seconds = 0;
    daemon = SetUp(args, *w, data_dir, log_path, sample, &engines, &seconds);
    setups.push_back(seconds);
  }
  std::string engine_list;
  for (const std::string& e : engines) engine_list += " " + e;
  std::printf("setup engines:%s\n", engine_list.c_str());
  rankcube::RankCubeClient op = MustConnect(daemon->port());
  const Counters built = MustCounters(op);

  Clock::time_point phase_start = Clock::now();
  std::string phase_times;
  for (double t : setups) phase_times += "setup=" + std::to_string(t) + " ";
  auto end_phase = [&](const char* name) {
    phase_times += std::string(name) + "=" +
                   std::to_string(SecondsSince(phase_start)) + " ";
    phase_start = Clock::now();
  };

  std::vector<rankcube::RankCubeClient> clients;
  for (int i = 0; i < w->clients; ++i) {
    clients.push_back(MustConnect(daemon->port()));
  }
  std::vector<std::deque<RowRef>> own_rows(w->clients);
  uint64_t acked_inserts = 0;
  uint64_t acked_deletes = 0;
  auto run_phase = [&](std::vector<OpStream>& streams, const PhasePlan& plan,
                       uint64_t answer_stride, const char* phase) {
    PhaseResult r =
        RunPhase(clients, own_rows, op, streams, plan, answer_stride);
    acked_inserts += r.counts.acked_inserts;
    acked_deletes += r.counts.acked_deletes;
    if (!r.counts.errors.empty()) {
      Reject(std::string(phase) + " had failed operations, first: " +
             r.counts.errors.front());
    }
    return r;
  };

  // --- warm-up: seeded script, until the caches level off -----------------
  std::vector<OpStream> warm;
  for (int i = 0; i < w->clients; ++i) {
    warm.emplace_back(*w, WarmSeed(args.seed), i, w->write_frac);
  }
  std::vector<Window> windows;
  Counters prev = built;
  for (int win = 0; win < w->warm_windows; ++win) {
    PhaseResult r = run_phase(warm, WarmPlan(*w), 0, "warm-up");
    if (r.counts.capped) Reject("a warm-up window hit its time cap");
    Counters now = MustCounters(op);
    Window win_stats;
    double logical = now.pages_logical - prev.pages_logical;
    win_stats.hit_frac =
        logical > 0 ? 1.0 - (now.pages_device - prev.pages_device) / logical
                    : 1.0;
    win_stats.cache_bytes = now.cache_bytes;
    win_stats.p50_ms = Quantile(r.query_ms, 0.5);
    windows.push_back(win_stats);
    std::printf("warmup window=%d ops=%llu p50_ms=%.3f buffer_hit_frac=%.4f "
                "cache_bytes=%.0f engines_built=%.0f\n",
                win, static_cast<unsigned long long>(r.counts.attempted),
                win_stats.p50_ms, win_stats.hit_frac, win_stats.cache_bytes,
                now.engines_built);
    prev = now;
  }
  // Level-off guard. Buffer cache: an LRU under a stationary workload is
  // level once it has turned over, so warm-up must have read at least four
  // times the cache's capacity from the device; the hit fraction of the
  // last window must also be within 0.25 of the one before (a few heavy
  // queries make 1000-query windows differ by up to about 0.18 when level).
  // Result cache: the bytes added in the last window are at most 25% more
  // than in the window before (a steady or shrinking fill rate), or the
  // cache is within 5% of its budget.
  if (windows.size() >= 2) {
    const Window& b = windows[windows.size() - 2];
    const Window& c = windows.back();
    const double before_b = windows.size() >= 3
                                ? windows[windows.size() - 3].cache_bytes
                                : built.cache_bytes;
    const double budget = static_cast<double>(kCacheMb) * 1024 * 1024;
    const double grew_before = b.cache_bytes - before_b;
    const double grew_last = c.cache_bytes - b.cache_bytes;
    const double warm_device = prev.pages_device - built.pages_device;
    if (warm_device < 4.0 * static_cast<double>(kCachePages) ||
        std::fabs(c.hit_frac - b.hit_frac) > 0.25) {
      Reject("warm-up ended before buffer_hit_frac levelled off (" +
             std::to_string(b.hit_frac) + " -> " + std::to_string(c.hit_frac) +
             ", " + std::to_string(warm_device) + " device pages read)");
    }
    if (c.cache_bytes < 0.95 * budget &&
        grew_last > 1.25 * std::max(grew_before, 0.0) + 64 * 1024) {
      Reject("warm-up ended before result-cache bytes levelled off (+" +
             std::to_string(grew_before) + " then +" +
             std::to_string(grew_last) + " bytes per window)");
    }
  }

  end_phase("warmup");

  // --- engines the whole timed script plans to, after warm-up's cost
  // feedback; their build time counts as set-up ---------------------------
  const PhasePlan timed_plan = TimedPlan(*w, args.seconds);
  std::vector<std::string> late;
  double late_build_s = 0;
  BuildRoutedEngines(op, parts, TimedQueries(*w, timed_plan), &engines, &late,
                     &late_build_s);
  for (const std::string& e : late) {
    std::printf("late engine %s (planned after warm-up)\n", e.c_str());
  }
  const double setup_s = Quantile(setups, 0.5) + late_build_s;
  end_phase("timed_closure");

  // --- timed phase: the fixed script, closed loop ------------------------
  std::vector<OpStream> timed;
  for (int i = 0; i < w->clients; ++i) {
    timed.emplace_back(*w, kTimedSeed, i, w->write_frac);
  }
  const bool read_only = w->write_frac == 0;
  const Counters before = MustCounters(op);
  const CpuTimes cpu_before = ReadCpuTimes();
  PhaseResult timed_r =
      RunPhase(clients, own_rows, op, timed, timed_plan, read_only ? 20 : 0);
  const CpuTimes cpu_after = ReadCpuTimes();
  const Counters after = MustCounters(op);
  const double rss_mb = daemon->PeakRssMb();
  end_phase("timed");
  const PhaseCounts& tc = timed_r.counts;
  acked_inserts += tc.acked_inserts;
  acked_deletes += tc.acked_deletes;
  const double steal = StealFrac(cpu_before, cpu_after);

  std::printf("timed ops=%llu elapsed_s=%.3f host_steal_frac=%.4f%s routes:",
              static_cast<unsigned long long>(tc.attempted), tc.elapsed_s,
              steal, tc.capped ? " CAPPED" : "");
  for (const auto& [engine, n] : timed_r.routes) {
    std::printf(" %s=%llu", engine.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");

  // Steadiness guards over the timed phase. Steal only guards --trace 0
  // runs, whose end-to-end metrics have bounds.
  if (args.trace == 0 && steal > kMaxStealFrac) {
    const std::string why =
        "the hypervisor stole " + std::to_string(steal) +
        " of the host's CPU time during the timed phase (limit " +
        std::to_string(kMaxStealFrac) + "): the attempt measured the host";
    if (attempt >= kAttempts || SecondsSince(start) > kRetryBeforeS) {
      Reject(why);
    }
    std::printf("attempt discarded: %s; starting over\n", why.c_str());
    g_daemon = nullptr;  // `daemon` is killed and reaped on return
    return Outcome::kHostBusy;
  }
  if (after.engines_built != before.engines_built) {
    Reject("engines_built changed during the timed phase (" +
           std::to_string(before.engines_built) + " -> " +
           std::to_string(after.engines_built) + "): a lazy build was timed");
  }
  if (!tc.errors.empty()) {
    Reject("timed phase had failed operations, first: " + tc.errors.front());
  }
  if (after.query_failures > before.query_failures ||
      after.request_errors > before.request_errors) {
    Reject("query_failures or request_errors rose during the timed phase");
  }

  // --- answer check (read-only workloads) --------------------------------
  bool correct = true;
  uint64_t wrong = 0;
  if (read_only) {
    rankcube::Table base = rankcube::GenerateSynthetic(DataSpec(*w));
    std::map<std::string, std::vector<rankcube::Tid>> partition_rows;
    for (const PartitionSpec& p : parts) {
      std::vector<rankcube::Tid>& rows = partition_rows[p.name];
      for (rankcube::Tid t = 0; t < base.num_rows(); ++t) {
        if (base.sel(t, 0) >= p.lo && base.sel(t, 0) < p.hi) rows.push_back(t);
      }
    }
    std::vector<std::string> why;
    wrong = CheckAnswers(timed_r.answers, base, partition_rows, &why);
    std::printf("answer_check sampled=%zu mismatches=%llu\n",
                timed_r.answers.size(), static_cast<unsigned long long>(wrong));
    for (const std::string& s : why) std::printf("  mismatch: %s\n", s.c_str());
    if (wrong > 0 || timed_r.answers.empty()) correct = false;
  }
  end_phase("check");

  // --- write tail (read-only workloads): writes on one connection, then
  // one COMPACT ----------------------------------------------------------
  PhaseResult writes_r;
  if (read_only) {
    std::vector<OpStream> tail = {OpStream(*w, kTailSeed, 0, 1.0)};
    writes_r = run_phase(tail, TailPlan(), 0, "write tail");
  }
  end_phase("tail");
  const PhaseResult& wr = read_only ? writes_r : timed_r;

  // --- durability and recovery: SIGKILL, restart on the same data dir ---
  clients.clear();
  const double want_live =
      static_cast<double>(w->rows + acked_inserts - acked_deletes);
  const double want_epoch = static_cast<double>(acked_inserts + acked_deletes);
  std::vector<double> recovery;
  for (int i = 0; i < kRestarts; ++i) {
    daemon->Stop(SIGKILL);
    daemon.reset();
    g_daemon = nullptr;
    Clock::time_point t0 = Clock::now();
    auto restarted = Daemon::Start(args.rankcubed, daemon_args, log_path, 120);
    if (!restarted.ok()) Reject("restart: " + restarted.status().ToString());
    daemon = std::move(restarted).value();
    g_daemon = daemon.get();
    recovery.push_back(SecondsSince(t0));
    rankcube::RankCubeClient check = MustConnect(daemon->port());
    Counters c = MustCounters(check);
    if (c.live_rows != want_live || c.epoch != want_epoch) {
      std::printf("durability_check FAILED live_rows=%.0f (want %.0f) "
                  "epoch=%.0f (want %.0f)\n",
                  c.live_rows, want_live, c.epoch, want_epoch);
      correct = false;
      break;
    }
  }
  std::printf("durability_check live_rows=%.0f epoch=%.0f restarts=%zu %s\n",
              want_live, want_epoch, recovery.size(),
              correct ? "ok" : "FAILED");
  const double disk_mb = DirSizeMb(data_dir);
  end_phase("restarts");
  std::printf("phase_seconds %s\n", phase_times.c_str());
  daemon->Stop(SIGKILL);
  daemon.reset();
  g_daemon = nullptr;

  // --- metrics -------------------------------------------------------------
  const uint64_t attempted = tc.attempted;
  const uint64_t failed = (attempted - tc.ok) + wrong;
  const double good = static_cast<double>(tc.ok - wrong);
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit,
                 size_t n) { metrics.push_back({name, value, unit, n}); };
  if (args.trace == 0) {
    std::vector<double> compact_ms;
    for (const CompactRecord& c : wr.compactions) compact_ms.push_back(c.ms);
    add("query_p50_ms", Quantile(timed_r.query_ms, 0.5), "ms",
        timed_r.query_ms.size());
    add("query_p99_ms", Quantile(timed_r.query_ms, 0.99), "ms",
        timed_r.query_ms.size());
    add("goodput_ops", good / tc.elapsed_s, "ops/s", attempted);
    add("ok_frac", attempted > 0 ? good / static_cast<double>(attempted) : 0,
        "frac", attempted);
    add("setup_s", setup_s, "s", setups.size());
    add("rss_mb", rss_mb, "MiB", 1);
    add("compact_p50_ms", Quantile(compact_ms, 0.5), "ms", compact_ms.size());
    add("disk_mb", disk_mb, "MiB", 1);
  } else {
    // Sub-millisecond write round trips and ~40 ms restarts vary between
    // runs by more than any end-to-end bound allows on this hardware, so
    // they are reported here, without a bound.
    add("write_p50_ms", Quantile(wr.write_ms, 0.5), "ms", wr.write_ms.size());
    add("write_p99_ms", Quantile(wr.write_ms, 0.99), "ms", wr.write_ms.size());
    add("recovery_s", Quantile(recovery, 0.5), "s", recovery.size());
    const double q = std::max(after.queries - before.queries, 1.0);
    const double n_ok =
        static_cast<double>(std::max<size_t>(timed_r.query_ms.size(), 1));
    add("planner.pages_charged_per_query",
        (after.pages_charged - before.pages_charged) / q, "pages", q);
    for (const char* e : {"grid", "fragments", "signature", "signature_lossy",
                          "ranking_first", "index_merge", "boolean_first",
                          "table_scan"}) {
      auto it = timed_r.routes.find(e);
      add(std::string("planner.route_frac.") + e,
          it == timed_r.routes.end() ? 0.0 : it->second / n_ok, "frac", n_ok);
    }
    const double logical = after.pages_logical - before.pages_logical;
    const double device = after.pages_device - before.pages_device;
    add("storage.pages_device_per_query", device / q, "pages", q);
    add("storage.buffer_hit_frac", logical > 0 ? 1.0 - device / logical : 1.0,
        "frac", logical);
    add("cache.evictions_per_query",
        (after.cache_evictions - before.cache_evictions) / q, "count", q);
    add("cache.entries", after.cache_entries, "count", 1);
    add("cache.hit_frac", (after.cache_hits - before.cache_hits) / q, "frac",
        q);
    add("cache.reuse_frac",
        (after.cache_reuse_hits - before.cache_reuse_hits) / q, "frac", q);
    add("cache.miss_frac", (after.cache_misses - before.cache_misses) / q,
        "frac", q);
    add("cache.invalidations_per_query",
        (after.cache_invalidations - before.cache_invalidations) / q, "count",
        q);
    add("server.overhead_ms", Quantile(timed_r.overhead_ms, 0.5), "ms",
        timed_r.overhead_ms.size());
    double wal = 0, wal_writes = 0, pending = 0, pages = 0, maintained = 0,
           rebuilt = 0;
    for (const CompactRecord& c : wr.compactions) {
      wal += c.wal_bytes;
      wal_writes += c.writes;
      pending += c.pending;
      pages += c.pages;
      maintained += c.maintained;
      rebuilt += c.rebuilt;
    }
    const double nc = std::max<double>(wr.compactions.size(), 1);
    add("storage.wal_bytes_per_write", wal_writes > 0 ? wal / wal_writes : 0,
        "bytes", wal_writes);
    add("storage.pending_at_compact", pending / nc, "count", nc);
    add("planner.compact_pages", pages / nc, "pages", nc);
    add("planner.compact_maintained", maintained / nc, "count", nc);
    add("planner.compact_rebuilt", rebuilt / nc, "count", nc);
    add("partition.queried_per_query", timed_r.partitions_queried / n_ok,
        "count", n_ok);
    add("partition.pruned_per_query", timed_r.partitions_pruned / n_ok,
        "count", n_ok);
    add("server.request_errors", after.request_errors - before.request_errors,
        "count", 1);
    add("server.rejected", after.rejected - before.rejected, "count", 1);

    TracedRunOptions topts;
    topts.workload = w;
    topts.seed = args.seed;
    topts.timed_plan = timed_plan;
    topts.data_dir = run_dir + "/traced";
    topts.spans_path = args.work_dir + "/spans-" + w->name + "-" +
                       std::to_string(args.seed) + ".tsv";
    TracedRunResult traced = RunTraced(topts);
    if (!traced.error.empty()) Reject(traced.error);
    for (const TracedMetric& m : traced.metrics) {
      add(m.name, m.value, m.unit.c_str(), 1);
    }
    std::printf("tracing overhead: timed phase %.3f s traced vs %.3f s "
                "untraced (%+.1f%%, spans plus shadow calls); untraced "
                "in-process query mean %.3f ms vs wire query mean %.3f ms\n",
                traced.traced_s, traced.untraced_s,
                traced.overhead_frac * 100, traced.request_ms,
                Mean(timed_r.query_ms));
  }
  fs::remove_all(run_dir);

  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return Outcome::kDone;
}

int Run(const Args& args) {
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "rcbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }
  const std::string run_dir = args.work_dir + "/" + w->name + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  g_run_dir = run_dir;

  std::printf(
      "header {\"bench\": \"rankcubed\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"rows\": %llu, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"cores\": %u, \"latency_us\": %u, \"cache_pages\": %llu, "
      "\"cache_mb\": %llu, \"fsync\": \"%s\", \"clients\": %d, "
      "\"seconds\": %g, \"trace\": %d}\n",
      w->name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(w->rows), RCBENCH_BUILD_TYPE,
      args.git_sha.c_str(), std::thread::hardware_concurrency(), kLatencyUs,
      static_cast<unsigned long long>(kCachePages),
      static_cast<unsigned long long>(kCacheMb), kFsync, w->clients,
      args.seconds, args.trace);
  std::fflush(stdout);


  const Clock::time_point start = Clock::now();
  for (int attempt = 1;; ++attempt) {
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    if (Attempt(args, w, run_dir, attempt, start) == Outcome::kDone) return 0;
  }
}

}  // namespace
}  // namespace rcbench

int main(int argc, char** argv) {
  rcbench::Args args;
  if (!rcbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --rankcubed <path> --work_dir <dir> "
                 "[--git_sha <sha>]\n");
    return 1;
  }
  return rcbench::Run(args);
}

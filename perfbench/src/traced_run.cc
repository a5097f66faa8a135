// In-process traced replay.
//
// Spans are recorded from this file, around calls into each layer's public
// API (spans inside the library are a later change). RankCubeDb::Query is a
// black box from here, so the steps it runs internally are measured as
// shadow calls made right after it for the same request, on objects the
// benchmark owns where the call has side effects:
//   cache.key      CanonicalizeQuery
//   cache.probe    ResultCache::Lookup + FindSiblings on a shadow cache built
//                  with the daemon's options and given the same inserts
//   planner.plan   RankCubeDb::Explain
//   engine.execute RankCubeDb::Engine()->Execute on an IoSession over a
//                  shadow PageStore with the daemon's geometry and latency
// They are recorded as children of planner.query, so planner.query's self
// time (its duration minus theirs) estimates gate wait plus glue code.
//
// The tracing overhead is measured, not estimated: the same replay runs
// first on a fresh db with spans and shadow calls off, and the traced timed
// phase's length is compared with the untraced one's.
#include "traced_run.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>

#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "partition/partitioned_db.h"
#include "phase.h"
#include "planner/rank_cube_db.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace rcbench {
namespace {

using namespace rankcube;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  uint64_t request;
  uint64_t id;
  uint64_t parent;  ///< 0 = root
  int64_t start_ns;
  int64_t end_ns;
};

/// One thread's spans; ids are unique across threads.
struct SpanLog {
  explicit SpanLog(uint64_t thread) : next_id((thread + 1) << 40) {}
  std::vector<Span> spans;
  uint64_t next_id;
};

/// A span around one call; records nothing when `log` is null (the
/// untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint64_t parent)
      : log_(log) {
    if (log_ == nullptr) return;
    index_ = log_->spans.size();
    log_->spans.push_back(
        {name, request, ++log_->next_id, parent, NowNs(), 0});
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->spans[index_].end_ns = NowNs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return log_ ? log_->spans[index_].id : 0; }

 private:
  SpanLog* log_;
  size_t index_ = 0;
};

/// Counters recorded at the engine.execute and partition.query boundaries.
struct LayerCounts {
  uint64_t executes = 0;
  std::array<uint64_t, static_cast<int>(IoCategory::kNumCategories)> pages{};
  uint64_t tuples_evaluated = 0;
  double signature_ms = 0;
  uint64_t scatters = 0;
  uint64_t partitions_queried = 0;
  uint64_t partitions_pruned = 0;
  uint64_t requests = 0;  ///< queries, timed around the whole request
  double request_ms = 0;

  void Add(const LayerCounts& o) {
    executes += o.executes;
    for (size_t i = 0; i < pages.size(); ++i) pages[i] += o.pages[i];
    tuples_evaluated += o.tuples_evaluated;
    signature_ms += o.signature_ms;
    scatters += o.scatters;
    partitions_queried += o.partitions_queried;
    partitions_pruned += o.partitions_pruned;
    requests += o.requests;
    request_ms += o.request_ms;
  }
};

std::string FormatScore(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The db under replay plus the benchmark-owned shadow objects.
class Replay {
 public:
  Replay(const WorkloadSpec& w, const std::string& data_dir) : w_(w) {
    RankCubeDb::Options db;
    db.store.cache_pages = kCachePages;
    db.store.read_latency_us = kLatencyUs;
    db.cache.max_bytes = static_cast<size_t>(kCacheMb) << 20;
    shadow_cache_ = std::make_unique<ResultCache>(db.cache);
    shadow_store_ = std::make_unique<PageStore>(db.store);
    auto fsync = ParseFsyncPolicy(kFsync);
    Table base = GenerateSynthetic(DataSpec(w));
    if (!w.partitioned) {
      db.durability.data_dir = data_dir;
      db.durability.fsync = fsync.value();
      auto opened = RankCubeDb::Open(std::move(base), db);
      if (!opened.ok()) {
        error_ = opened.status().ToString();
        return;
      }
      db_ = std::move(opened).value();
      return;
    }
    PartitionedDb::Options popts;
    popts.schema = base.schema();
    popts.partition_dim = 0;
    popts.db = db;
    popts.db.cache.max_bytes = 0;
    popts.cache.max_bytes = db.cache.max_bytes;
    popts.data_dir = data_dir;
    popts.fsync = fsync.value();
    auto opened = PartitionedDb::Open(std::move(popts));
    if (!opened.ok()) {
      error_ = opened.status().ToString();
      return;
    }
    pdb_ = std::move(opened).value();
    std::vector<int32_t> sel(base.num_sel_dims());
    std::vector<double> rank(base.num_rank_dims());
    for (const PartitionSpec& p : Partitions(w)) {
      Table seed(base.schema());
      for (Tid row = 0; row < static_cast<Tid>(base.num_rows()); ++row) {
        if (base.sel(row, 0) < p.lo || base.sel(row, 0) >= p.hi) continue;
        for (int d = 0; d < base.num_sel_dims(); ++d) sel[d] = base.sel(row, d);
        for (int d = 0; d < base.num_rank_dims(); ++d) {
          rank[d] = base.rank(row, d);
        }
        (void)seed.AddRow(sel, rank);
      }
      Status s = pdb_->CreatePartition(p.name, {p.lo, p.hi}, std::move(seed));
      if (!s.ok()) error_ = s.ToString();
    }
  }

  const std::string& error() const { return error_; }

  /// Builds every engine `queries` route to (in every partition) that is
  /// not built yet: the same closure the wire run computes.
  Status BuildEngines(const std::vector<std::string>& queries) {
    auto explain = [&](const std::string& text)
        -> Result<std::vector<std::string>> {
      auto req = ParseRequest(text);
      if (!req.ok()) return req.status();
      auto q = ParseWireQuery(req.value(), Schema());
      if (!q.ok()) return q.status();
      if (db_ != nullptr) {
        auto plan = db_->Explain(q.value());
        if (!plan.ok()) return plan.status();
        return std::vector<std::string>{"plan: " +
                                        plan.value().chosen_engine};
      }
      auto scatter = pdb_->ExplainScatter(q.value());
      if (!scatter.ok()) return scatter.status();
      std::vector<std::string> lines;
      const std::string& out = scatter.value();
      for (size_t start = 0; start < out.size();) {
        size_t eol = out.find('\n', start);
        if (eol == std::string::npos) eol = out.size();
        lines.push_back(out.substr(start, eol - start));
        start = eol + 1;
      }
      return lines;
    };
    auto build = [&](const std::string& e) -> Status {
      if (db_ != nullptr) return db_->Engine(e).status();
      for (const PartitionSpec& p : Partitions(w_)) {
        auto req = ParseRequest("QUERY k=10 order=linear:0.5,0.5 where=0:" +
                                std::to_string(p.lo));
        auto q = ParseWireQuery(req.value(), Schema());
        QueryOptions opts;
        opts.force_engine = e;
        (void)pdb_->Query(q.value(), opts);  // builds even if it then fails
      }
      return Status::OK();
    };
    return CloseEngines(queries, explain, build, &engines_, nullptr);
  }

  const TableSchema& Schema() const {
    return db_ != nullptr ? db_->table().schema()
                          : pdb_->Partition("p0").value()->table().schema();
  }

  /// One QUERY request. With a null `log` it runs untraced: no spans and
  /// no shadow calls.
  OpOutcome Query(const std::string& text, SpanLog* log, uint64_t rid,
                  LayerCounts* counts) {
    OpOutcome out;
    ScopedSpan req(log, "request", rid, 0);
    Result<TopKQuery> query = Status::Internal("unparsed");
    {
      ScopedSpan s(log, "server.parse", rid, req.id());
      auto parsed = ParseRequest(text);
      if (parsed.ok()) {
        query = ParseWireQuery(parsed.value(), Schema());
      } else {
        query = parsed.status();
      }
    }
    if (!query.ok()) {
      out.error = query.status().ToString();
      return out;
    }
    Result<AdmissionController::Ticket> ticket =
        Status::Internal("not admitted");
    {
      ScopedSpan s(log, "server.admit", rid, req.id());
      ticket = admission_.Admit("default");
    }
    if (!ticket.ok()) {
      out.error = ticket.status().ToString();
      return out;
    }
    Response resp;
    if (pdb_ != nullptr) {
      Result<PartitionedTopK> r = Status::Internal("not run");
      {
        ScopedSpan s(log, "partition.query", rid, req.id());
        r = pdb_->Query(query.value());
      }
      if (!r.ok()) {
        out.error = r.status().ToString();
        return out;
      }
      ++counts->scatters;
      counts->partitions_queried += r.value().scatter.queried;
      counts->partitions_pruned += r.value().scatter.pruned_by_predicate +
                                   r.value().scatter.pruned_by_bound;
      ticket.value().set_ok(true);
      ScopedSpan s(log, "server.encode", rid, req.id());
      resp.lines.push_back("tuples=" + std::to_string(r.value().tuples.size()));
      for (const PartitionedTuple& t : r.value().tuples) {
        resp.lines.push_back(std::to_string(t.tid) + " " +
                             FormatScore(t.score) + " " + t.partition);
      }
      std::string wire = EncodeFrame(resp.Encode());
      (void)wire;
      out.ok = true;
      return out;
    }

    Result<TopKResult> r = Status::Internal("not run");
    uint64_t qid = 0;
    {
      ScopedSpan s(log, "planner.query", rid, req.id());
      qid = s.id();
      r = db_->Query(query.value());
    }
    if (!r.ok()) {
      out.error = r.status().ToString();
      return out;
    }
    if (log != nullptr) {
      out.error = Shadow(query.value(), r.value(), log, rid, qid, counts);
      if (!out.error.empty()) return out;
    }
    ticket.value().set_ok(true);
    ScopedSpan s(log, "server.encode", rid, req.id());
    const TopKResult& res = r.value();
    char head[160];
    std::snprintf(head, sizeof(head),
                  "tuples=%zu engine=%s pages=%llu time_ms=%.3f",
                  res.tuples.size(),
                  res.plan ? res.plan->chosen_engine.c_str() : "direct",
                  static_cast<unsigned long long>(res.stats.pages_read),
                  res.stats.time_ms);
    resp.lines.emplace_back(head);
    for (const ScoredTuple& t : res.tuples) {
      resp.lines.push_back(std::to_string(t.tid) + " " + FormatScore(t.score));
    }
    std::string wire = EncodeFrame(resp.Encode());
    (void)wire;
    out.ok = true;
    return out;
  }

  /// INSERT, or DELETE of `victim`.
  OpOutcome Write(const Op& op, const RowRef* victim, SpanLog* log,
                  uint64_t rid) {
    OpOutcome out;
    Status status;
    std::vector<int32_t> sel;
    std::vector<double> rank;
    if (op.kind == OpKind::kInsert) {
      auto req = ParseRequest(op.request);
      sel = ParseInt32List(*req.value().Find("sel")).value();
      rank = ParseDoubleList(*req.value().Find("rank")).value();
    }
    std::unique_lock<std::shared_mutex> gate(gate_);
    ScopedSpan span(log, "storage.insert", rid, 0);
    if (op.kind == OpKind::kInsert) {
      if (db_ != nullptr) {
        auto tid = db_->Insert(sel, rank);
        status = tid.status();
        if (tid.ok()) out.inserted.tid = tid.value();
      } else {
        auto ref = pdb_->Insert(sel, rank);
        status = ref.status();
        if (ref.ok()) out.inserted = {ref.value().tid, ref.value().partition};
      }
    } else {
      status = db_ != nullptr ? db_->Delete(victim->tid)
                              : pdb_->Delete(victim->partition, victim->tid);
    }
    if (!status.ok()) {
      out.error = status.ToString();
      return out;
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
    out.ok = true;
    return out;
  }

  std::string Compact(SpanLog* log, uint64_t rid) {
    std::unique_lock<std::shared_mutex> gate(gate_);
    ScopedSpan span(log, "planner.compact", rid, 0);
    Status s =
        db_ != nullptr ? db_->Compact().status() : pdb_->Compact().status();
    return s.ok() ? "" : s.ToString();
  }

 private:
  /// The shadow calls of one answered query; returns "" or the error.
  std::string Shadow(const TopKQuery& query, const TopKResult& result,
                     SpanLog* log, uint64_t rid, uint64_t parent,
                     LayerCounts* counts) {
    CanonicalQuery key;
    {
      ScopedSpan s(log, "cache.key", rid, parent);
      key = CanonicalizeQuery(query);
    }
    const std::string tag = std::to_string(epoch_.load());
    bool hit = false;
    {
      ScopedSpan s(log, "cache.probe", rid, parent);
      hit = shadow_cache_->Lookup(key, tag).has_value();
      if (!hit) (void)shadow_cache_->FindSiblings(key, tag);
    }
    if (hit) return "";
    Result<PlanInfo> plan = Status::Internal("unplanned");
    {
      ScopedSpan s(log, "planner.plan", rid, parent);
      plan = db_->Explain(query);
    }
    if (!plan.ok()) return plan.status().ToString();
    {
      // Writers are excluded so the engine pointer and the table stay
      // valid for the whole execution.
      std::shared_lock<std::shared_mutex> gate(gate_);
      auto engine = db_->Engine(plan.value().chosen_engine);
      if (!engine.ok()) return engine.status().ToString();
      IoSession io(shadow_store_.get());
      ExecContext ctx;
      ctx.io = &io;
      Result<TopKResult> executed = Status::Internal("not run");
      {
        ScopedSpan s(log, "engine.execute", rid, parent);
        executed = engine.value()->Execute(query, ctx);
      }
      if (!executed.ok()) return executed.status().ToString();
      ++counts->executes;
      for (int c = 0; c < static_cast<int>(IoCategory::kNumCategories); ++c) {
        counts->pages[c] += io.stats(static_cast<IoCategory>(c)).physical;
      }
      counts->tuples_evaluated += executed.value().stats.tuples_evaluated;
      counts->signature_ms += executed.value().stats.signature_ms;
    }
    if (key.cacheable) {
      // The same insert the db made: its answer under the query's key.
      CachedResult entry;
      entry.tuples = result.tuples;
      entry.complete = static_cast<int>(result.tuples.size()) < query.k;
      entry.exclusion_bound =
          entry.complete || result.tuples.empty() ? kInfScore
                                                  : result.tuples.back().score;
      entry.expr = query.function->Expr();
      entry.plan = result.plan;
      shadow_cache_->RecordMiss();
      shadow_cache_->Insert(key, tag, std::move(entry));
    }
    return "";
  }

  const WorkloadSpec& w_;
  std::string error_;
  std::unique_ptr<RankCubeDb> db_;
  std::unique_ptr<PartitionedDb> pdb_;
  std::unique_ptr<ResultCache> shadow_cache_;
  std::unique_ptr<PageStore> shadow_store_;
  std::set<std::string> engines_;  ///< built so far
  AdmissionController admission_{TenantQuota{8, 0, 0}};
  /// Writes and compactions exclude shadow executions (see Shadow()).
  std::shared_mutex gate_;
  /// Acknowledged writes so far: the shadow cache's epoch tag.
  std::atomic<uint64_t> epoch_{0};
};

/// One replay of a workload: the db, and per client its span log (null
/// when untraced), layer counts and acknowledged rows.
struct ReplayRun {
  ReplayRun(const WorkloadSpec& w, const std::string& data_dir, bool traced)
      : replay(w, data_dir), counts(w.clients + 1), own(w.clients) {
    if (!traced) return;
    for (int i = 0; i <= w.clients; ++i) logs.emplace_back(i);
  }
  /// Span log of client i (i == clients: the operator); null if untraced.
  SpanLog* Log(size_t i) { return logs.empty() ? nullptr : &logs[i]; }

  /// Runs one phase; returns "" or the first failure.
  std::string Phase(std::vector<OpStream>& streams, const PhasePlan& plan,
                    PhaseCounts* result = nullptr) {
    const size_t op_lane = counts.size() - 1;
    auto exec = [&](size_t i, const Op& op, const RowRef* victim) {
      const uint64_t rid = next_rid.fetch_add(1);
      if (op.kind == OpKind::kQuery) {
        const auto t0 = Clock::now();
        OpOutcome out = replay.Query(op.request, Log(i), rid, &counts[i]);
        counts[i].request_ms +=
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        ++counts[i].requests;
        return out;
      }
      return replay.Write(op, victim, Log(i), rid);
    };
    auto compact = [&] {
      return replay.Compact(Log(op_lane), next_rid.fetch_add(1));
    };
    PhaseCounts r = DrivePhase(streams, own, plan, exec, compact);
    if (result != nullptr) *result = r;
    if (!r.errors.empty()) return r.errors.front();
    if (r.capped) return "phase hit its time cap";
    return "";
  }

  /// Set-up and warm-up as in the wire run: builds the engines the plan
  /// sample routes to, runs the warm script, builds the engines the timed
  /// script now routes to, then drops what warm-up recorded. Returns "" or
  /// the error.
  std::string Prepare(const WorkloadSpec& w, uint64_t seed,
                      const PhasePlan& timed) {
    if (!replay.error().empty()) return "open: " + replay.error();
    Status built = replay.BuildEngines(PlanSample(w, seed));
    if (!built.ok()) return "build engines: " + built.ToString();
    std::vector<OpStream> warm;
    for (int i = 0; i < w.clients; ++i) {
      warm.emplace_back(w, WarmSeed(seed), i, w.write_frac);
    }
    for (int win = 0; win < w.warm_windows; ++win) {
      std::string error = Phase(warm, WarmPlan(w));
      if (!error.empty()) return "warm-up: " + error;
    }
    built = replay.BuildEngines(TimedQueries(w, timed));
    if (!built.ok()) return "build engines: " + built.ToString();
    for (SpanLog& log : logs) log.spans.clear();
    for (LayerCounts& c : counts) c = LayerCounts();
    return "";
  }

  Replay replay;
  std::vector<SpanLog> logs;
  std::vector<LayerCounts> counts;
  std::vector<std::deque<RowRef>> own;
  std::atomic<uint64_t> next_rid{1};
};

const char* LayerOf(const std::string& span) {
  static const char* kLayers[] = {"server", "cache", "planner", "engine",
                                  "storage", "partition"};
  for (const char* layer : kLayers) {
    if (span.rfind(std::string(layer) + ".", 0) == 0) return layer;
  }
  return nullptr;
}

/// Names of the spans the replay records, in output order.
const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> kNames = {
      "server.parse",   "server.admit",   "cache.key",       "cache.probe",
      "planner.plan",   "engine.execute", "planner.query",   "storage.insert",
      "planner.compact", "partition.query", "server.encode"};
  return kNames;
}

std::vector<OpStream> TimedStreams(const WorkloadSpec& w) {
  std::vector<OpStream> timed;
  for (int i = 0; i < w.clients; ++i) {
    timed.emplace_back(w, kTimedSeed, i, w.write_frac);
  }
  return timed;
}

}  // namespace

TracedRunResult RunTraced(const TracedRunOptions& o) {
  TracedRunResult out;
  const WorkloadSpec& w = *o.workload;

  // Untraced: the same set-up, warm-up and timed script on a fresh db,
  // with spans and shadow calls off.
  PhaseCounts untraced;
  double untraced_request_ms = 0;
  {
    ReplayRun run(w, o.data_dir + "-untraced", /*traced=*/false);
    std::string error = run.Prepare(w, o.seed, o.timed_plan);
    std::vector<OpStream> timed = TimedStreams(w);
    if (error.empty()) error = run.Phase(timed, o.timed_plan, &untraced);
    if (!error.empty()) {
      out.error = "untraced replay: " + error;
      return out;
    }
    LayerCounts total;
    for (const LayerCounts& c : run.counts) total.Add(c);
    untraced_request_ms =
        total.requests > 0 ? total.request_ms / total.requests : 0.0;
  }

  ReplayRun run(w, o.data_dir, /*traced=*/true);
  std::string error = run.Prepare(w, o.seed, o.timed_plan);
  // Timed script, then (read-only workloads) the write tail.
  PhaseCounts traced;
  std::vector<OpStream> timed = TimedStreams(w);
  if (error.empty()) error = run.Phase(timed, o.timed_plan, &traced);
  PhaseCounts tail_counts;
  if (error.empty() && w.write_frac == 0) {
    std::vector<OpStream> tail = {OpStream(w, kTailSeed, 0, 1.0)};
    error = run.Phase(tail, TailPlan(), &tail_counts);
  }
  if (!error.empty()) {
    out.error = "traced replay: " + error;
    return out;
  }
  LayerCounts counts;
  for (const LayerCounts& c : run.counts) counts.Add(c);

  // Self time: duration minus the children's durations.
  std::vector<const Span*> all;
  for (const SpanLog& log : run.logs) {
    for (const Span& s : log.spans) all.push_back(&s);
  }
  std::map<uint64_t, double> child_ms;
  for (const Span* s : all) {
    if (s->parent != 0) {
      child_ms[s->parent] += static_cast<double>(s->end_ns - s->start_ns) / 1e6;
    }
  }
  std::map<std::string, std::pair<double, uint64_t>> self;  // total, calls
  for (const Span* s : all) {
    if (std::string(s->name) == "request") continue;
    double dur = static_cast<double>(s->end_ns - s->start_ns) / 1e6;
    auto it = child_ms.find(s->id);
    self[s->name].first += dur - (it == child_ms.end() ? 0.0 : it->second);
    ++self[s->name].second;
  }

  // Spans stay in memory until here.
  if (FILE* f = std::fopen(o.spans_path.c_str(), "w")) {
    std::fprintf(f, "request\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (const Span* s : all) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s->request),
                   static_cast<unsigned long long>(s->id),
                   static_cast<unsigned long long>(s->parent), s->name,
                   static_cast<long long>(s->start_ns),
                   static_cast<long long>(s->end_ns));
    }
    std::fclose(f);
  }

  const double ops = static_cast<double>(
      std::max<uint64_t>(traced.attempted + tail_counts.attempted, 1));
  std::map<std::string, double> layer_ms;
  for (const std::string& name : SpanNames()) {
    auto it = self.find(name);
    double total = it == self.end() ? 0.0 : it->second.first;
    double calls =
        it == self.end() ? 0.0 : static_cast<double>(it->second.second);
    out.metrics.push_back({"trace." + name + ".self_ms",
                           calls > 0 ? total / calls : 0.0, "ms"});
    layer_ms[LayerOf(name)] += total;
  }
  for (const char* layer :
       {"server", "cache", "planner", "engine", "storage", "partition"}) {
    out.metrics.push_back({std::string("trace.layer.") + layer +
                               ".self_ms_per_op",
                           layer_ms[layer] / ops, "ms"});
  }
  const double executes =
      static_cast<double>(std::max<uint64_t>(counts.executes, 1));
  for (int c = 0; c < static_cast<int>(IoCategory::kNumCategories); ++c) {
    out.metrics.push_back({std::string("trace.engine.pages.") +
                               IoCategoryName(static_cast<IoCategory>(c)),
                           static_cast<double>(counts.pages[c]) / executes,
                           "pages"});
  }
  out.metrics.push_back({"trace.engine.tuples_evaluated",
                         static_cast<double>(counts.tuples_evaluated) /
                             executes,
                         "count"});
  out.metrics.push_back(
      {"trace.engine.signature_ms", counts.signature_ms / executes, "ms"});
  const double scatters =
      static_cast<double>(std::max<uint64_t>(counts.scatters, 1));
  out.metrics.push_back(
      {"trace.partition.queried",
       static_cast<double>(counts.partitions_queried) / scatters, "count"});
  out.metrics.push_back(
      {"trace.partition.pruned",
       static_cast<double>(counts.partitions_pruned) / scatters, "count"});
  // Untraced figures, so they compare with the wire run.
  out.request_ms = untraced_request_ms;
  out.untraced_s = untraced.elapsed_s;
  out.traced_s = traced.elapsed_s;
  out.metrics.push_back({"trace.request_ms", untraced_request_ms, "ms"});
  out.metrics.push_back(
      {"trace.ops_per_s",
       untraced.elapsed_s > 0
           ? static_cast<double>(untraced.attempted) / untraced.elapsed_s
           : 0.0,
       "ops/s"});
  out.overhead_frac = untraced.elapsed_s > 0
                          ? traced.elapsed_s / untraced.elapsed_s - 1.0
                          : 0.0;
  out.metrics.push_back({"trace.overhead_frac", out.overhead_frac, "frac"});
  return out;
}

}  // namespace rcbench

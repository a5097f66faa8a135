#include "wire_run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "func/query.h"
#include "server/protocol.h"

namespace rcbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Sum of "partition.<name>.<field>" over every partition.
double SumPartitions(const StatMap& m, const std::string& field) {
  double sum = 0;
  const std::string suffix = "." + field;
  for (const auto& [key, value] : m) {
    if (key.rfind("partition.", 0) == 0 && key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        key.find('.', 10) == key.size() - suffix.size()) {
      sum += std::atof(value.c_str());
    }
  }
  return sum;
}

/// Value of `key=` inside a space-separated head line ("tuples=10 ...").
std::string HeadField(const std::string& head, const std::string& key) {
  const std::string pat = key + "=";
  size_t pos = 0;
  while (pos < head.size()) {
    size_t end = head.find(' ', pos);
    if (end == std::string::npos) end = head.size();
    if (head.compare(pos, pat.size(), pat) == 0) {
      return head.substr(pos + pat.size(), end - pos - pat.size());
    }
    pos = end + 1;
  }
  return "";
}

}  // namespace

rankcube::Result<Counters> ReadCounters(rankcube::RankCubeClient& conn) {
  auto resp = conn.Call("STATS");
  if (!resp.ok()) return resp.status();
  if (!resp.value().ok()) {
    return rankcube::Status::Internal("STATS failed: " + resp.value().message);
  }
  StatMap m = ParseKeyValues(resp.value().lines);
  Counters c;
  const bool partitioned = m.count("partitions") > 0;
  auto field = [&](const std::string& key) {
    return partitioned ? SumPartitions(m, key) : StatNum(m, key);
  };
  c.queries = StatNum(m, partitioned ? "scatter.queries_executed"
                                     : "queries_executed");
  c.query_failures =
      StatNum(m, partitioned ? "scatter.query_failures" : "query_failures");
  c.pages_logical = field("pages_logical");
  c.pages_charged = field("pages_charged");
  c.pages_device = field("pages_device");
  c.engines_built = field("engines_built");
  c.wal_bytes = field("wal_bytes");
  c.pending = field("pending_inserts") + field("pending_deletes");
  c.epoch = field("epoch");
  c.live_rows = StatNum(m, "live_rows");
  c.cache_hits = StatNum(m, "cache_hits");
  c.cache_reuse_hits = StatNum(m, "cache_reuse_hits");
  c.cache_misses = StatNum(m, "cache_misses");
  c.cache_entries = StatNum(m, "cache_entries");
  c.cache_bytes = StatNum(m, "cache_bytes");
  c.cache_evictions = StatNum(m, "cache_evictions");
  c.cache_invalidations = StatNum(m, "cache_invalidations");
  c.request_errors = StatNum(m, "server.request_errors");
  for (const auto& [key, value] : m) {
    if (key.rfind("tenant.", 0) == 0 && key.size() > 9 &&
        key.compare(key.size() - 9, 9, ".rejected") == 0) {
      c.rejected += std::atof(value.c_str());
    }
  }
  return c;
}

PhaseResult RunPhase(std::vector<rankcube::RankCubeClient>& clients,
                     std::vector<std::deque<RowRef>>& own_rows,
                     rankcube::RankCubeClient& op,
                     std::vector<OpStream>& streams, const PhasePlan& plan,
                     uint64_t answer_stride) {
  // Per-client results, merged at the end; [streams.size()] is the
  // operator's.
  std::vector<PhaseResult> per(streams.size() + 1);
  std::vector<uint64_t> queries(streams.size(), 0);
  std::atomic<uint64_t> acked_writes{0};
  auto exec = [&](size_t i, const Op& next, const RowRef* victim) {
    PhaseResult& r = per[i];
    OpOutcome out;
    std::string request = next.request;
    if (victim != nullptr) {
      request = "DELETE tid=" + std::to_string(victim->tid);
      if (!victim->partition.empty()) {
        request += " partition=" + victim->partition;
      }
    }
    Clock::time_point t0 = Clock::now();
    auto resp = clients[i].Call(request);
    const double ms = MsSince(t0);
    if (!resp.ok()) {
      out.error = "transport: " + resp.status().ToString();
      return out;
    }
    const rankcube::Response& reply = resp.value();
    if (!reply.ok()) {
      out.error = request + " -> " + rankcube::WireCodeName(reply.code) +
                  " " + reply.message;
      return out;
    }
    out.ok = true;
    if (next.kind == OpKind::kQuery) {
      const std::string head = reply.lines.empty() ? "" : reply.lines[0];
      r.query_ms.push_back(ms);
      r.overhead_ms.push_back(
          ms - std::atof(HeadField(head, "time_ms").c_str()));
      ++r.routes[HeadField(head, "engine")];
      r.partitions_queried += std::atof(HeadField(head, "queried").c_str());
      r.partitions_pruned += std::atof(HeadField(head, "pruned").c_str());
      if (answer_stride > 0 && queries[i]++ % answer_stride == 0) {
        r.answers.push_back({request, reply.lines});
      }
      return out;
    }
    r.write_ms.push_back(ms);
    acked_writes.fetch_add(1);
    if (next.kind == OpKind::kInsert) {
      StatMap kv = ParseKeyValues(reply.lines);
      out.inserted.tid = static_cast<uint32_t>(StatNum(kv, "tid"));
      if (kv.count("partition")) out.inserted.partition = kv["partition"];
    }
    return out;
  };

  uint64_t acked_before = 0;  // acknowledged writes at the last COMPACT
  auto compact = [&]() -> std::string {
    CompactRecord rec;
    const uint64_t acked = acked_writes.load();
    rec.writes = static_cast<double>(acked - acked_before);
    acked_before = acked;
    auto before = ReadCounters(op);
    if (before.ok()) {
      rec.pending = before.value().pending;
      rec.wal_bytes = before.value().wal_bytes;
    }
    Clock::time_point t0 = Clock::now();
    auto resp = op.Call("COMPACT");
    rec.ms = MsSince(t0);
    if (!resp.ok() || !resp.value().ok()) {
      return "COMPACT failed: " + (resp.ok() ? resp.value().message
                                             : resp.status().ToString());
    }
    StatMap kv = ParseKeyValues(resp.value().lines);
    rec.pages = StatNum(kv, "pages");
    rec.maintained = StatNum(kv, "maintained");
    rec.rebuilt = StatNum(kv, "rebuilt");
    per.back().compactions.push_back(rec);
    return "";
  };

  PhaseResult out;
  out.counts = DrivePhase(streams, own_rows, plan, exec, compact);
  for (PhaseResult& r : per) {
    out.query_ms.insert(out.query_ms.end(), r.query_ms.begin(),
                        r.query_ms.end());
    out.write_ms.insert(out.write_ms.end(), r.write_ms.begin(),
                        r.write_ms.end());
    out.overhead_ms.insert(out.overhead_ms.end(), r.overhead_ms.begin(),
                           r.overhead_ms.end());
    for (const auto& [engine, n] : r.routes) out.routes[engine] += n;
    out.partitions_queried += r.partitions_queried;
    out.partitions_pruned += r.partitions_pruned;
    for (Answer& a : r.answers) out.answers.push_back(std::move(a));
    out.compactions.insert(out.compactions.end(), r.compactions.begin(),
                           r.compactions.end());
  }
  return out;
}

uint64_t CheckAnswers(
    const std::vector<Answer>& answers, const rankcube::Table& base,
    const std::map<std::string, std::vector<rankcube::Tid>>& partition_rows,
    std::vector<std::string>* why) {
  uint64_t bad = 0;
  auto fail = [&](const Answer& a, const std::string& what) {
    ++bad;
    if (why->size() < 5) why->push_back(a.request + ": " + what);
  };
  for (const Answer& a : answers) {
    auto req = rankcube::ParseRequest(a.request);
    if (!req.ok()) {
      fail(a, req.status().ToString());
      continue;
    }
    auto query = rankcube::ParseWireQuery(req.value(), base.schema());
    if (!query.ok()) {
      fail(a, query.status().ToString());
      continue;
    }
    std::vector<rankcube::ScoredTuple> want =
        rankcube::BruteForceTopK(base, query.value());
    std::vector<rankcube::ScoredTuple> got;
    bool parsed = true;
    for (size_t i = 1; i < a.lines.size(); ++i) {
      const std::string& line = a.lines[i];
      char* end = nullptr;
      unsigned long tid = std::strtoul(line.c_str(), &end, 10);
      double score = std::strtod(end, &end);
      while (*end == ' ') ++end;
      std::string partition = end;
      if (!partition.empty()) {
        auto rows = partition_rows.find(partition);
        if (rows == partition_rows.end() || tid >= rows->second.size()) {
          parsed = false;
          break;
        }
        tid = rows->second[tid];
      }
      got.push_back({static_cast<uint32_t>(tid), score});
    }
    if (!parsed) {
      fail(a, "unparsable result line");
      continue;
    }
    // An unpartitioned reply must come in rank order, ties by tid, as
    // BruteForceTopK gives it. A partitioned reply orders ties by
    // partition and local tid, so it is compared in base-row order.
    if (!partition_rows.empty()) std::sort(got.begin(), got.end());
    if (got != want) {
      fail(a, "got " + std::to_string(got.size()) + " tuples, want " +
                  std::to_string(want.size()) +
                  (got.size() == want.size() ? " (tid/score mismatch)" : ""));
    }
  }
  return bad;
}

}  // namespace rcbench

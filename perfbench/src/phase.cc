#include "phase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace rcbench {
namespace {

using Clock = std::chrono::steady_clock;

void NoteError(PhaseCounts* c, const std::string& what) {
  if (c->errors.size() < 5) c->errors.push_back(what);
}

}  // namespace

PhaseCounts DrivePhase(std::vector<OpStream>& streams,
                       std::vector<std::deque<RowRef>>& own_rows,
                       const PhasePlan& plan, const OpExecutor& exec,
                       const CompactExecutor& compact) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point cap =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.cap_seconds));
  std::atomic<bool> stop{false};
  std::atomic<bool> capped{false};
  std::mutex mu;  // guards acked_writes and clients_done
  std::condition_variable cv;
  uint64_t acked_writes = 0;
  size_t clients_done = 0;

  std::vector<PhaseCounts> per(streams.size());
  auto client_loop = [&](size_t i) {
    PhaseCounts& r = per[i];
    std::deque<RowRef>& own = own_rows[i];
    for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      if (plan.compactions == 0 && n >= plan.ops_per_client) break;
      if (plan.cap_seconds > 0 && Clock::now() >= cap) {
        capped.store(true);
        break;
      }
      const Op op = streams[i].Next();
      ++r.attempted;
      if (op.kind == OpKind::kDelete && own.empty()) {
        NoteError(&r, "no acknowledged row left to delete");
        continue;
      }
      OpOutcome out =
          exec(i, op, op.kind == OpKind::kDelete ? &own.front() : nullptr);
      if (!out.ok) {
        NoteError(&r, out.error);
        continue;
      }
      ++r.ok;
      if (op.kind == OpKind::kQuery) continue;
      if (op.kind == OpKind::kInsert) {
        own.push_back(std::move(out.inserted));
        ++r.acked_inserts;
      } else {
        own.pop_front();
        ++r.acked_deletes;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++acked_writes;
      }
      cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++clients_done;
    }
    cv.notify_all();
  };

  PhaseCounts op_counts;
  auto operator_loop = [&] {
    for (uint64_t next = plan.compact_every;; next += plan.compact_every) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return acked_writes >= next || clients_done == streams.size();
        });
        if (acked_writes < next) break;
      }
      ++op_counts.attempted;
      std::string error = compact();
      if (!error.empty()) {
        NoteError(&op_counts, error);
      } else {
        ++op_counts.ok;
        ++op_counts.compactions;
      }
      if (plan.compactions > 0 && op_counts.compactions >= plan.compactions) {
        stop.store(true);
        break;
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back(client_loop, i);
  }
  std::thread operator_thread;
  if (plan.compact_every > 0) operator_thread = std::thread(operator_loop);
  for (std::thread& t : threads) t.join();
  if (operator_thread.joinable()) operator_thread.join();

  PhaseCounts out;
  out.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  out.capped = capped.load();
  per.push_back(std::move(op_counts));
  for (PhaseCounts& r : per) {
    out.attempted += r.attempted;
    out.ok += r.ok;
    out.acked_inserts += r.acked_inserts;
    out.acked_deletes += r.acked_deletes;
    out.compactions += r.compactions;
    for (std::string& e : r.errors) NoteError(&out, std::move(e));
  }
  if (plan.compactions > 0 && out.compactions < plan.compactions &&
      !out.capped) {
    NoteError(&out, "phase ended after " + std::to_string(out.compactions) +
                        " of " + std::to_string(plan.compactions) +
                        " compactions");
  }
  return out;
}

PhasePlan WarmPlan(const WorkloadSpec& w) {
  PhasePlan plan;
  if (w.write_frac > 0) {
    plan.compactions = 1;
    plan.compact_every = kCompactEvery;
  } else {
    plan.ops_per_client = static_cast<uint64_t>(w.window_ops / w.clients);
  }
  plan.cap_seconds = 60;
  return plan;
}

PhasePlan TimedPlan(const WorkloadSpec& w, double seconds) {
  PhasePlan plan;
  if (w.write_frac > 0) {
    plan.compactions =
        std::max(2, static_cast<int>(std::lround(seconds / 4)));
    plan.compact_every = kCompactEvery;
  } else {
    plan.ops_per_client =
        static_cast<uint64_t>(std::llround(w.timed_ops_per_s * seconds));
  }
  plan.cap_seconds = 6 * seconds;
  return plan;
}

std::vector<std::string> TimedQueries(const WorkloadSpec& w,
                                      const PhasePlan& timed) {
  const uint64_t ops =
      w.write_frac > 0
          ? static_cast<uint64_t>(1.5 * timed.compactions *
                                  static_cast<double>(timed.compact_every) /
                                  w.write_frac / w.clients)
          : timed.ops_per_client;
  std::vector<std::string> out;
  for (int c = 0; c < w.clients; ++c) {
    OpStream stream(w, kTimedSeed, c, w.write_frac);
    for (uint64_t i = 0; i < ops; ++i) {
      Op op = stream.Next();
      if (op.kind == OpKind::kQuery) out.push_back(std::move(op.request));
    }
  }
  return out;
}

PhasePlan TailPlan() {
  PhasePlan plan;
  plan.ops_per_client = kTailWrites;
  plan.compact_every = kTailWrites;
  plan.cap_seconds = 60;
  return plan;
}

rankcube::Status CloseEngines(
    const std::vector<std::string>& queries,
    const std::function<rankcube::Result<std::vector<std::string>>(
        const std::string&)>& explain,
    const std::function<rankcube::Status(const std::string&)>& build,
    std::set<std::string>* engines, std::vector<std::string>* built) {
  const std::set<std::string> distinct(queries.begin(), queries.end());
  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> lines;
    for (const std::string& query : distinct) {
      auto plan = explain(query);
      if (!plan.ok()) return plan.status();
      lines.insert(lines.end(), plan.value().begin(), plan.value().end());
    }
    std::vector<std::string> fresh;
    for (const std::string& e : PlannedEngines(lines)) {
      if (engines->insert(e).second) fresh.push_back(e);
    }
    if (fresh.empty()) return rankcube::Status::OK();
    for (const std::string& e : fresh) {
      rankcube::Status s = build(e);
      if (!s.ok()) return s;
      if (built != nullptr) built->push_back(e);
    }
  }
  return rankcube::Status::OK();
}

}  // namespace rcbench

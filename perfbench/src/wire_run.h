// Closed-loop replay of operation scripts against a running rankcubed.
#ifndef RCBENCH_WIRE_RUN_H_
#define RCBENCH_WIRE_RUN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "phase.h"
#include "server/client.h"
#include "storage/table.h"

namespace rcbench {

/// Daemon counters read from one STATS reply, partitioned or not.
struct Counters {
  double queries = 0, query_failures = 0;
  double pages_logical = 0, pages_charged = 0, pages_device = 0;
  double engines_built = 0;
  double cache_hits = 0, cache_reuse_hits = 0, cache_misses = 0;
  double cache_entries = 0, cache_bytes = 0, cache_evictions = 0;
  double cache_invalidations = 0;
  double request_errors = 0, rejected = 0;
  double wal_bytes = 0, pending = 0;
  double live_rows = 0, epoch = 0;
};
rankcube::Result<Counters> ReadCounters(rankcube::RankCubeClient& conn);

/// A sampled query and the daemon's reply lines, for the answer check.
struct Answer {
  std::string request;
  std::vector<std::string> lines;
};

/// What one operator COMPACT saw.
struct CompactRecord {
  double ms = 0;
  double pending = 0;    ///< pending inserts + deletes just before
  double wal_bytes = 0;  ///< WAL bytes since the last checkpoint, just before
  double writes = 0;     ///< acknowledged writes that WAL holds
  double pages = 0, maintained = 0, rebuilt = 0;
};

struct PhaseResult {
  PhaseCounts counts;
  std::vector<double> query_ms, write_ms, overhead_ms;
  std::map<std::string, uint64_t> routes;  ///< QUERY head engine= counts
  double partitions_queried = 0, partitions_pruned = 0;
  std::vector<Answer> answers;
  std::vector<CompactRecord> compactions;
};

/// Runs one phase of `plan` over the wire: client i sends streams[i] on
/// clients[i] (own_rows[i] holds its acknowledged rows), and `op` is the
/// operator connection that COMPACTs. answer_stride > 0 keeps every
/// stride-th query reply of each client for the answer check.
PhaseResult RunPhase(std::vector<rankcube::RankCubeClient>& clients,
                     std::vector<std::deque<RowRef>>& own_rows,
                     rankcube::RankCubeClient& op,
                     std::vector<OpStream>& streams, const PhasePlan& plan,
                     uint64_t answer_stride);

/// Checks sampled answers against a brute-force top-k over `base` (the
/// regenerated relation). For partitioned replies, `partition_rows` maps
/// each partition's local tid to the base row. Returns the number of
/// mismatches; the first few are described in `why`.
uint64_t CheckAnswers(
    const std::vector<Answer>& answers, const rankcube::Table& base,
    const std::map<std::string, std::vector<rankcube::Tid>>& partition_rows,
    std::vector<std::string>* why);

}  // namespace rcbench

#endif  // RCBENCH_WIRE_RUN_H_

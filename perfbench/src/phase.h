// The closed-loop phase driver and the engine closure, shared by the wire
// run (wire_run.cc) and the traced in-process replay (traced_run.cc), so
// both replay the same scripts with the same compaction cadence.
#ifndef RCBENCH_PHASE_H_
#define RCBENCH_PHASE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"

namespace rcbench {

/// A row a client inserted and saw acknowledged.
struct RowRef {
  uint32_t tid = 0;
  std::string partition;  ///< empty when unpartitioned
};

/// What executing one op gave.
struct OpOutcome {
  bool ok = false;
  std::string error;  ///< why it failed (when !ok)
  RowRef inserted;    ///< the acknowledged row of an ok insert
};

/// Executes `op` for client `client`. `victim` is the row a delete removes
/// (nullptr for queries and inserts). Called concurrently for different
/// clients, never for the same client.
using OpExecutor = std::function<OpOutcome(size_t client, const Op& op,
                                           const RowRef* victim)>;
/// Runs one COMPACT; returns an empty string or the error.
using CompactExecutor = std::function<std::string()>;

struct PhasePlan {
  /// Each client runs exactly this many ops (unless `compactions` > 0).
  uint64_t ops_per_client = 0;
  /// >0: clients run until the operator has completed this many COMPACTs;
  /// the phase ends right after the last one, so it holds whole
  /// compaction cycles.
  int compactions = 0;
  /// >0: the operator COMPACTs after every this many acknowledged writes.
  uint64_t compact_every = 0;
  /// >0: safety cap; clients stop after this many seconds and the phase
  /// is marked capped.
  double cap_seconds = 0;
};

struct PhaseCounts {
  uint64_t attempted = 0;  ///< client ops plus COMPACTs
  uint64_t ok = 0;
  uint64_t acked_inserts = 0, acked_deletes = 0;
  int compactions = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  double elapsed_s = 0;
  bool capped = false;
};

/// Runs one phase: one thread per stream driving client i with streams[i]
/// in a closed loop, plus the operator thread when plan.compact_every > 0.
/// `own_rows[i]` holds client i's acknowledged, not yet deleted rows
/// (own_rows.size() >= streams.size()); streams and rows carry over
/// between phases.
PhaseCounts DrivePhase(std::vector<OpStream>& streams,
                       std::vector<std::deque<RowRef>>& own_rows,
                       const PhasePlan& plan, const OpExecutor& exec,
                       const CompactExecutor& compact);

/// Warm-up window: read-only workloads run `window_ops` ops, write
/// workloads one whole compaction cycle.
PhasePlan WarmPlan(const WorkloadSpec& w);
/// The timed script: a fixed length for a given `seconds`, sized on the
/// seed to last about that long. Read-only workloads run
/// `timed_ops_per_s` x `seconds` ops per client; write workloads run whole
/// compaction cycles, one per 4 s (at least 2). `seconds` x 6 caps it.
PhasePlan TimedPlan(const WorkloadSpec& w, double seconds);
/// The queries of every client's timed script under `timed` (a write
/// workload's clients run until the last COMPACT: its script is taken half
/// as long again as its cycles need on average).
std::vector<std::string> TimedQueries(const WorkloadSpec& w,
                                      const PhasePlan& timed);
/// The write tail of read-only workloads: kTailWrites writes on one
/// connection, then one COMPACT.
PhasePlan TailPlan();

/// Plans the distinct `queries` with `explain` (the EXPLAIN output lines of
/// one query), builds every engine the plans name that `engines` lacks
/// with `build`, and repeats until no plan names an unbuilt engine (a
/// built engine's exact statistics can move plans). Adds the engines it
/// built to `built` when that is not null.
rankcube::Status CloseEngines(
    const std::vector<std::string>& queries,
    const std::function<rankcube::Result<std::vector<std::string>>(
        const std::string&)>& explain,
    const std::function<rankcube::Status(const std::string&)>& build,
    std::set<std::string>* engines, std::vector<std::string>* built);

}  // namespace rcbench

#endif  // RCBENCH_PHASE_H_

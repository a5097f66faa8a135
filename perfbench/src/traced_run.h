// The traced in-process replay: the same relation and scripts as the wire
// run, driven through the library's public API with a span around each
// call into a layer.
#ifndef RCBENCH_TRACED_RUN_H_
#define RCBENCH_TRACED_RUN_H_

#include <string>
#include <vector>

#include "bench.h"
#include "phase.h"

namespace rcbench {

struct TracedRunOptions {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  PhasePlan timed_plan;    ///< the wire run's timed phase
  std::string data_dir;    ///< fresh directory for the durable db
  std::string spans_path;  ///< every span is written here at the end
};

struct TracedMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedRunResult {
  std::string error;  ///< non-empty = the replay failed
  std::vector<TracedMetric> metrics;  ///< in output order
  double request_ms = 0;     ///< mean untraced query request time
  double untraced_s = 0;     ///< timed phase, spans and shadow calls off
  double traced_s = 0;       ///< timed phase, traced
  double overhead_frac = 0;  ///< traced_s / untraced_s - 1
};

TracedRunResult RunTraced(const TracedRunOptions& options);

}  // namespace rcbench

#endif  // RCBENCH_TRACED_RUN_H_

// Folding round results into the reported metrics, and the result line.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// One reported metric. `samples` is the count a percentile rests on (0 for
/// metrics that are not percentiles).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// End-to-end metrics of the timed (untraced) rounds. Host figures are the
/// median over rounds of each round's value; sim-time figures repeat exactly
/// across rounds at one seed. A percentile without ten samples beyond it is
/// reported in `problems`.
std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    double peak_rss_mb,
                                    std::vector<std::string>& problems);

/// What the traced run measures besides the per-round results.
struct TraceSummary {
  std::vector<double> self_ms;  // per layer, median over traced rounds
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
  double telemetry_on_ops_per_s = 0.0;   // 0 unless toggled
  double telemetry_off_ops_per_s = 0.0;  // 0 unless toggled
};

/// Per-layer metrics from the traced rounds. Host percentiles pool the call
/// samples of every traced round (each round does identical work).
std::vector<Metric> PerLayerMetrics(const std::vector<RoundResult>& traced,
                                    const TraceSummary& summary);

/// Operations completed per host second of the timed phase.
double OpsPerSecond(const RoundResult& r);

/// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench

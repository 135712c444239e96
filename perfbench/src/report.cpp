#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Pools one host-sample series over rounds.
HostSamples Pool(const std::vector<RoundResult>& rounds,
                 HostSamples RoundResult::*series) {
  HostSamples out;
  for (const RoundResult& r : rounds) {
    out.insert(out.end(), (r.*series).begin(), (r.*series).end());
  }
  return out;
}

/// A percentile metric; 0 with `samples` 0 when the series is too short for
/// the ten-beyond rule (the layer is idle on this workload).
Metric PercentileMetric(std::string name, HostSamples samples, double q,
                        std::string unit) {
  const std::size_t n = samples.size();
  const std::optional<Percentile> p = NearestRank(samples, q);
  return {std::move(name), p ? p->value : 0.0, std::move(unit),
          p ? p->samples : n};
}

}  // namespace

double OpsPerSecond(const RoundResult& r) {
  return Ratio(static_cast<double>(r.completed), r.timed_s);
}

std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    double peak_rss_mb,
                                    std::vector<std::string>& problems) {
  std::vector<double> setup, ops, op50, op99, sim50, sim99, err, miss;
  std::size_t op_n = 0;
  std::size_t sim_n = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    ops.push_back(OpsPerSecond(r));
    HostSamples host = r.op_us;
    std::vector<double> sim = r.sim_latency_ms;
    const auto h50 = NearestRank(host, 0.50);
    const auto h99 = NearestRank(host, 0.99);
    const auto s50 = NearestRank(sim, 0.50);
    const auto s99 = NearestRank(sim, 0.99);
    if (!h50 || !h99 || !s50 || !s99) {
      problems.push_back("a p99 lacks ten samples beyond it (host n=" +
                         std::to_string(host.size()) + ", sim n=" +
                         std::to_string(sim.size()) + ")");
      continue;
    }
    op50.push_back(h50->value);
    op99.push_back(h99->value);
    sim50.push_back(s50->value);
    sim99.push_back(s99->value);
    op_n = h99->samples;
    sim_n = s99->samples;
    const auto attempted = static_cast<double>(r.attempted);
    const auto checks_failed = static_cast<double>(r.check_failures.size());
    err.push_back(Ratio(static_cast<double>(r.failed) + checks_failed, attempted));
    miss.push_back(Ratio(static_cast<double>(r.late + r.failed), attempted));
  }
  return {
      {"setup_s", Median(setup), "s", 0},
      {"ops_per_s", Median(ops), "ops/s", 0},
      {"op_p50_us", Median(op50), "us", op_n},
      {"op_p99_us", Median(op99), "us", op_n},
      {"sim_p50_ms", Median(sim50), "ms", sim_n},
      {"sim_p99_ms", Median(sim99), "ms", sim_n},
      {"error_frac", Median(err), "fraction", 0},
      {"deadline_miss_frac", Median(miss), "fraction", 0},
      {"peak_rss_mb", peak_rss_mb, "MB", 0},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<RoundResult>& traced,
                                    const TraceSummary& summary) {
  std::vector<Metric> m;
  if (traced.empty()) return m;
  // Counters repeat exactly across rounds; the first round stands for all.
  const RoundResult& r = traced.front();
  const WorkCounters& c = r.counters;
  const auto ops = static_cast<double>(r.completed);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> sim_run;
  std::vector<double> gaps;
  for (const RoundResult& t : traced) {
    sim_run.push_back(t.sim_run_s);
    gaps.push_back(Median(t.failover_gaps_ms));
  }

  m.push_back({"sim.events_per_op", Ratio(count(c.events), ops), "events/op"});
  m.push_back({"sim.host_ns_per_event",
               Ratio(Median(sim_run) * 1e9, count(c.events)), "ns"});
  m.push_back({"sim.run_s", Median(sim_run), "s"});
  m.push_back({"net.messages_per_op", Ratio(count(c.messages), ops), "msgs/op"});
  m.push_back({"net.bytes_per_op", Ratio(count(c.bytes), ops), "B/op"});
  m.push_back({"net.dropped", count(c.dropped), "count"});
  m.push_back({"net.retries", count(c.net_retries), "count"});
  m.push_back({"kb.commits", count(c.kb_commits), "count"});
  m.push_back({"kb.elections", count(c.kb_elections), "count"});
  m.push_back({"kb.client_retries", count(c.kb_client_retries), "count"});
  m.push_back({"kb.log_entries", count(c.kb_log_entries), "count"});
  m.push_back({"kb.watch_events", count(c.kb_watch_events), "count"});
  m.push_back({"kb.failover_gap_ms", Median(gaps), "ms"});
  m.push_back(PercentileMetric("sched.bind_us.p50",
                               Pool(traced, &RoundResult::bind_us), 0.50, "us"));
  m.push_back(PercentileMetric("sched.bind_us.p99",
                               Pool(traced, &RoundResult::bind_us), 0.99, "us"));
  m.push_back(PercentileMetric("sched.delete_us.p50",
                               Pool(traced, &RoundResult::delete_us), 0.50,
                               "us"));
  m.push_back(PercentileMetric("sched.reconcile_us.p50",
                               Pool(traced, &RoundResult::reconcile_us), 0.50,
                               "us"));
  m.push_back(PercentileMetric("sched.reconcile_us.p99",
                               Pool(traced, &RoundResult::reconcile_us), 0.99,
                               "us"));
  m.push_back({"sched.bind_failures", count(c.bind_failures), "count"});
  m.push_back({"sched.pending_pods", count(c.pending_pods), "count"});
  m.push_back(PercentileMetric("continuum.churn_op_us.p50",
                               Pool(traced, &RoundResult::churn_op_us), 0.50,
                               "us"));
  m.push_back(PercentileMetric("continuum.churn_op_us.p99",
                               Pool(traced, &RoundResult::churn_op_us), 0.99,
                               "us"));
  m.push_back({"continuum.energy_mj_per_op", Ratio(r.energy_mj, ops), "mJ/op"});
  m.push_back(PercentileMetric("mirto.mape_us.p50",
                               Pool(traced, &RoundResult::mape_us), 0.50, "us"));
  m.push_back(PercentileMetric("mirto.mape_us.p99",
                               Pool(traced, &RoundResult::mape_us), 0.99, "us"));
  m.push_back({"mirto.nodes_observed_per_iter",
               Ratio(count(c.nodes_observed), count(c.mape_iterations)),
               "nodes/iter"});
  m.push_back({"mirto.reallocations", count(c.reallocations), "count"});
  m.push_back({"mirto.slo_publishes", count(c.slo_publishes), "count"});
  m.push_back(PercentileMetric("mirto.deploy_us.p50",
                               Pool(traced, &RoundResult::deploy_us), 0.50,
                               "us"));
  m.push_back(PercentileMetric("dpe.design_us.p50",
                               Pool(traced, &RoundResult::design_us), 0.50,
                               "us"));
  m.push_back({"telemetry.spans_per_op", Ratio(count(c.telemetry_spans), ops),
               "spans/op"});
  // 1 - on/off: the share of telemetry-off throughput lost to telemetry.
  const double on_off =
      Ratio(summary.telemetry_on_ops_per_s, summary.telemetry_off_ops_per_s);
  m.push_back({"telemetry.overhead_frac", on_off == 0.0 ? 0.0 : 1.0 - on_off,
               "fraction"});
  m.push_back({"alloc.count_per_op", Ratio(count(c.alloc_count), ops),
               "allocs/op"});
  m.push_back({"alloc.bytes_per_op", Ratio(count(c.alloc_bytes), ops), "B/op"});
  for (std::size_t l = 0; l < kNumLayers && l < summary.self_ms.size(); ++l) {
    m.push_back({std::string(LayerName(static_cast<Layer>(l))) + ".self_ms",
                 summary.self_ms[l], "ms"});
  }
  // 1 - traced/untraced: the share of untraced throughput lost to spans.
  const double traced_ratio =
      Ratio(summary.traced_ops_per_s, summary.untraced_ops_per_s);
  m.push_back({"trace.overhead_frac",
               traced_ratio == 0.0 ? 0.0 : 1.0 - traced_ratio, "fraction"});
  return m;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

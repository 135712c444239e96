// Tests of the benchmark's own machinery: the percentile rule, the base of
// every reported ratio, the span store, the heap counters, and each
// correctness check tripping on a seeded wrong answer.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "checks.hpp"
#include "continuum/node.hpp"
#include "harness.hpp"
#include "kb/store.hpp"
#include "report.hpp"
#include "sched/controller.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace myrtus;

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

const Metric& Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m;
  }
  ADD_FAILURE() << "no metric " << name;
  static const Metric kMissing;
  return kMissing;
}

// --- Percentile rule ---------------------------------------------------------

TEST(NearestRank, P99NeedsTenSamplesBeyond) {
  std::vector<double> thousand = OneTo(1000);
  const auto p99 = NearestRank(thousand, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);  // rank ceil(990), ten samples beyond
  EXPECT_EQ(p99->samples, 1000u);

  std::vector<double> short_of_it = OneTo(999);
  EXPECT_FALSE(NearestRank(short_of_it, 0.99).has_value());  // nine beyond
}

TEST(NearestRank, MedianAndBounds) {
  std::vector<double> twenty = OneTo(20);
  const auto p50 = NearestRank(twenty, 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10.0);
  std::vector<double> nineteen = OneTo(19);
  EXPECT_FALSE(NearestRank(nineteen, 0.5).has_value());
  std::vector<double> empty;
  EXPECT_FALSE(NearestRank(empty, 0.5).has_value());
  EXPECT_FALSE(NearestRank(twenty, 0.0).has_value());
  EXPECT_FALSE(NearestRank(twenty, 1.5).has_value());
  // Order of the input does not matter.
  std::vector<double> reversed(twenty.rbegin(), twenty.rend());
  EXPECT_EQ(NearestRank(reversed, 0.5)->value, 10.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

// --- Ratio bases ----------------------------------------------------------------

RoundResult SyntheticRound() {
  RoundResult r;
  r.attempted = 1000;
  r.completed = 900;
  r.failed = 50;
  r.late = 30;
  r.timed_s = 2.0;
  r.setup_s = 0.5;
  r.sim_run_s = 1.5;
  r.op_us = OneTo(1000);
  r.sim_latency_ms = OneTo(1000);
  r.energy_mj = 450.0;
  r.counters.events = 3000;
  r.counters.messages = 1800;
  r.counters.bytes = 90000;
  r.counters.mape_iterations = 10;
  r.counters.nodes_observed = 40;
  r.counters.telemetry_spans = 2700;
  r.counters.alloc_count = 4500;
  r.counters.alloc_bytes = 9000;
  return r;
}

TEST(Ratios, EndToEndBases) {
  RoundResult r = SyntheticRound();
  r.Fail("seeded check failure");
  std::vector<std::string> problems;
  const std::vector<Metric> m = EndToEndMetrics({r}, 42.0, problems);
  EXPECT_TRUE(problems.empty());
  // Completed ops over host seconds of the timed phase (not attempted).
  EXPECT_DOUBLE_EQ(Find(m, "ops_per_s").value, 900.0 / 2.0);
  // Failed ops plus failed checks over attempted ops.
  EXPECT_DOUBLE_EQ(Find(m, "error_frac").value, (50.0 + 1.0) / 1000.0);
  // Late plus failed over attempted: a failed op misses its deadline.
  EXPECT_DOUBLE_EQ(Find(m, "deadline_miss_frac").value, (30.0 + 50.0) / 1000.0);
  EXPECT_DOUBLE_EQ(Find(m, "op_p99_us").value, 990.0);
  EXPECT_EQ(Find(m, "op_p99_us").samples, 1000u);
  EXPECT_DOUBLE_EQ(Find(m, "sim_p50_ms").value, 500.0);
  EXPECT_DOUBLE_EQ(Find(m, "setup_s").value, 0.5);
  EXPECT_DOUBLE_EQ(Find(m, "peak_rss_mb").value, 42.0);
}

TEST(Ratios, ShortSeriesIsAProblemNotAValue) {
  RoundResult r = SyntheticRound();
  r.op_us = OneTo(999);
  std::vector<std::string> problems;
  (void)EndToEndMetrics({r}, 1.0, problems);
  EXPECT_EQ(problems.size(), 1u);
}

TEST(Ratios, PerLayerBases) {
  TraceSummary summary;
  summary.self_ms.assign(kNumLayers, 1.0);
  summary.untraced_ops_per_s = 1000.0;
  summary.traced_ops_per_s = 900.0;
  summary.telemetry_on_ops_per_s = 800.0;
  summary.telemetry_off_ops_per_s = 1000.0;
  const std::vector<Metric> m = PerLayerMetrics({SyntheticRound()}, summary);
  EXPECT_DOUBLE_EQ(Find(m, "sim.events_per_op").value, 3000.0 / 900.0);
  EXPECT_DOUBLE_EQ(Find(m, "sim.host_ns_per_event").value, 1.5e9 / 3000.0);
  EXPECT_DOUBLE_EQ(Find(m, "net.messages_per_op").value, 1800.0 / 900.0);
  EXPECT_DOUBLE_EQ(Find(m, "net.bytes_per_op").value, 90000.0 / 900.0);
  EXPECT_DOUBLE_EQ(Find(m, "mirto.nodes_observed_per_iter").value, 4.0);
  EXPECT_DOUBLE_EQ(Find(m, "continuum.energy_mj_per_op").value, 0.5);
  EXPECT_DOUBLE_EQ(Find(m, "telemetry.spans_per_op").value, 3.0);
  EXPECT_DOUBLE_EQ(Find(m, "alloc.count_per_op").value, 5.0);
  EXPECT_DOUBLE_EQ(Find(m, "alloc.bytes_per_op").value, 10.0);
  // Overheads are losses against the un-instrumented base.
  EXPECT_DOUBLE_EQ(Find(m, "telemetry.overhead_frac").value, 1.0 - 800.0 / 1000.0);
  EXPECT_DOUBLE_EQ(Find(m, "trace.overhead_frac").value, 1.0 - 900.0 / 1000.0);
  EXPECT_DOUBLE_EQ(Find(m, "mirto.self_ms").value, 1.0);
  // No toggled telemetry run: no overhead is claimed.
  summary.telemetry_on_ops_per_s = 0.0;
  summary.telemetry_off_ops_per_s = 0.0;
  EXPECT_EQ(Find(PerLayerMetrics({SyntheticRound()}, summary),
                 "telemetry.overhead_frac").value, 0.0);
}

TEST(Ratios, ZeroBaseIsZero) { EXPECT_EQ(Ratio(5.0, 0.0), 0.0); }

TEST(ResultJson, HasExactlyTheContractKeys) {
  const std::string json =
      ResultJson(true, 7, 0, {{"setup_s", 0.25, "s", 0}, {"ops_per_s", 3.5, "ops/s", 0}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ops_per_s\": "
            "{\"value\": 3.5, \"unit\": \"ops/s\"}}}");
}

// --- Spans, clock and heap counters --------------------------------------------

TEST(SpanStore, SelfTimeExcludesChildren) {
  SpanStore store;
  SetActiveSpans(&store);
  {
    Span outer("outer", Layer::kSim);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
    {
      Span inner("inner", Layer::kMirto);
      for (int i = 0; i < 100000; ++i) x = x + i;
    }
  }
  SetActiveSpans(nullptr);
  ASSERT_EQ(store.spans().size(), 2u);
  EXPECT_EQ(store.spans()[1].parent, 0);
  const SpanRecord& outer = store.spans()[0];
  const SpanRecord& inner = store.spans()[1];
  const std::vector<double> self = store.SelfNsByLayer();
  EXPECT_DOUBLE_EQ(self[static_cast<std::size_t>(Layer::kMirto)],
                   static_cast<double>(inner.end_ns - inner.start_ns));
  EXPECT_DOUBLE_EQ(self[static_cast<std::size_t>(Layer::kSim)] +
                       self[static_cast<std::size_t>(Layer::kMirto)],
                   static_cast<double>(outer.end_ns - outer.start_ns));
}

TEST(SpanStore, BoundedAndInactiveByDefault) {
  { Span ignored("nothing", Layer::kUtil); }  // no active store: no effect
  SpanStore store(1);
  SetActiveSpans(&store);
  { Span a("a", Layer::kKb); }
  { Span b("b", Layer::kKb); }
  SetActiveSpans(nullptr);
  EXPECT_EQ(store.spans().size(), 1u);
  EXPECT_EQ(store.dropped(), 1u);
}

TEST(HostClock, MonotonicAndCalibrated) {
  const std::int64_t a = HostNowNs();
  const std::int64_t b = HostNowNs();
  EXPECT_LE(a, b);
  EXPECT_GT(HostSpeedFactor(), 0.0);
}

TEST(AllocCounts, CountOperatorNew) {
  const AllocCounts before = ReadAllocCounts();
  auto p = std::make_unique<std::uint64_t[]>(16);
  const AllocCounts after = ReadAllocCounts();
  EXPECT_EQ(after.count, before.count + 1);
  EXPECT_EQ(after.bytes, before.bytes + 16 * sizeof(std::uint64_t));
  p[0] = 1;
}

// --- Correctness checks trip on seeded wrong answers ---------------------------

TEST(Checks, Admission) {
  EXPECT_FALSE(CheckAllAdmitted(4, 4).has_value());
  EXPECT_TRUE(CheckAllAdmitted(4, 3).has_value());
}

TEST(Checks, RequestConservation) {
  EXPECT_FALSE(CheckRequestConservation(10, 8, 2).has_value());
  EXPECT_TRUE(CheckRequestConservation(10, 7, 2).has_value());  // one lost
}

TEST(Checks, PodAccounting) {
  EXPECT_FALSE(CheckPodAccounting(5, 2, 7).has_value());
  EXPECT_TRUE(CheckPodAccounting(5, 2, 8).has_value());
}

/// Two-node cluster: an edge node and a cloud node with equal capacity.
struct SmallCluster {
  sim::Engine engine;
  std::vector<std::unique_ptr<continuum::ComputeNode>> nodes;
  sched::Cluster cluster{engine, sched::Scheduler::Default()};

  SmallCluster() {
    for (const auto& [id, layer] :
         {std::pair{"edge", continuum::Layer::kEdge},
          std::pair{"cloud", continuum::Layer::kCloud}}) {
      auto node = std::make_unique<continuum::ComputeNode>(
          engine, id, layer, "test", security::SecurityLevel::kHigh, 4096);
      node->AddDevice(continuum::Device(std::string(id) + "/cpu",
                                        continuum::DeviceKind::kServerCpu, 8,
                                        {continuum::OperatingPoint{"base"}}));
      cluster.AddNode(node.get());
      nodes.push_back(std::move(node));
    }
  }
};

sched::PodSpec Pod(const std::string& name, double cpu) {
  sched::PodSpec pod;
  pod.name = name;
  pod.cpu_request = cpu;
  pod.mem_request_mb = 64;
  return pod;
}

TEST(Checks, VerdictsAgreeWithTheReferenceScan) {
  SmallCluster w;
  ASSERT_TRUE(w.cluster.BindPodToNode(Pod("load", 4.0), "cloud").ok());
  const std::vector<sched::PodSpec> probes = {Pod("probe-a", 1.0),
                                              Pod("probe-b", 64.0)};
  EXPECT_FALSE(
      CheckVerdicts(w.cluster, sched::Scheduler::Default(), probes).has_value());
  // A reference that prefers the loaded cloud node picks a different winner.
  sched::Scheduler wrong = sched::Scheduler::Default();
  wrong.ClearScorers();
  wrong.AddScorer(sched::plugins::PreferLayer("cloud", 100.0));
  EXPECT_TRUE(CheckVerdicts(w.cluster, wrong, probes).has_value());
}

TEST(Checks, NoPodOnDownNodes) {
  SmallCluster w;
  ASSERT_TRUE(w.cluster.BindPodToNode(Pod("victim", 1.0), "edge").ok());
  const std::vector<const continuum::ComputeNode*> nodes = {
      w.nodes[0].get(), w.nodes[1].get()};
  EXPECT_FALSE(CheckNoPodOnDownNodes(w.cluster, nodes).has_value());
  w.nodes[0]->SetUp(false);  // down, not yet reconciled: the seeded fault
  EXPECT_TRUE(CheckNoPodOnDownNodes(w.cluster, nodes).has_value());
  w.cluster.Reconcile();
  EXPECT_FALSE(CheckNoPodOnDownNodes(w.cluster, nodes).has_value());
}

TEST(Checks, ReplicasIdentical) {
  kb::Store a;
  kb::Store b;
  a.Put("/registry/nodes/n1", util::Json(1));
  b.Put("/registry/nodes/n1", util::Json(1));
  EXPECT_FALSE(CheckReplicasIdentical({&a, &b}).has_value());
  b.Put("/registry/nodes/n2", util::Json(2));  // a diverged replica
  EXPECT_TRUE(CheckReplicasIdentical({&a, &b}).has_value());
}

TEST(Checks, NoLostWrites) {
  kb::Store store;
  store.Put("/k", util::Json(1));
  store.Put("/k", util::Json(2));
  EXPECT_FALSE(CheckNoLostWrites(store, {{"/k", 2}}).has_value());
  EXPECT_TRUE(CheckNoLostWrites(store, {{"/k", 3}}).has_value());
  EXPECT_TRUE(CheckNoLostWrites(store, {{"/missing", 1}}).has_value());
}

}  // namespace
}  // namespace perfbench

// pilot_mix: smart-mobility and telerehab tenants on a scaled continuum.
//
// Every tenant is admitted the way an operator would: DPE design, CSAR
// validation (TOSCA lowering), MIRTO deployment, then the scenario's stage
// pods are bound through the scheduler. Requests arrive open-loop as Poisson
// streams in sim time — sensors and patients are independent users, so a
// slow system does not slow the arrivals. A seeded ChaosController fails and
// heals edge nodes; MAPE runs at its 250 ms period from a benchmark-owned
// periodic event so each iteration is timed. Product telemetry stays on.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "continuum/infrastructure.hpp"
#include "dpe/pipeline.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "sim/chaos.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "tosca/model.hpp"
#include "usecases/scenario.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace myrtus;

// Sizing: four tenants on a 3x fleet stay below saturation (about 5% of
// requests late or failed, mostly from chaos); eight saturate it.
constexpr int kTenants = 4;
constexpr int kScale = 3;
const sim::SimTime kTraffic = sim::SimTime::Seconds(120);
// Relay RPCs time out after 10 s; the drain lets every request finish.
const sim::SimTime kDrain = sim::SimTime::Seconds(12);
const sim::SimTime kMapePeriod = sim::SimTime::Millis(250);
const sim::SimTime kMeanUp = sim::SimTime::Seconds(8);
const sim::SimTime kMeanDown = sim::SimTime::Millis(800);

struct Arrival {
  sim::SimTime at;
  int tenant = 0;
};

/// Owns one pilot world. Members are declared in dependency order so that
/// destruction tears down users before what they point into.
struct PilotWorld {
  sim::Engine engine;
  continuum::Infrastructure infra;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<sched::Cluster> cluster;
  kb::Store kb_store;
  std::unique_ptr<mirto::MirtoAgent> agent;
  std::vector<std::unique_ptr<usecases::Scenario>> scenarios;
  std::vector<std::unique_ptr<usecases::RequestPipeline>> pipelines;
  std::unique_ptr<sim::ChaosController> chaos;
};

void BuildFleet(PilotWorld& w, std::uint64_t seed) {
  continuum::InfrastructureSpec spec;
  spec.edge_hmpsoc *= kScale;
  spec.edge_riscv *= kScale;
  spec.edge_multicore *= kScale;
  spec.gateways *= kScale;
  spec.fmdcs *= kScale;
  {
    Span span("BuildInfrastructure", Layer::kContinuum);
    w.infra = continuum::BuildInfrastructure(w.engine, spec);
  }
  net::Topology topology = w.infra.topology;
  topology.AddBidirectional("mirto-agent", w.infra.DefaultGateway(),
                            sim::SimTime::Micros(100), 1e9);
  {
    Span span("Network", Layer::kNet);
    w.network = std::make_unique<net::Network>(w.engine, std::move(topology),
                                               seed);
  }
  {
    Span span("Cluster.AddNode", Layer::kSched);
    w.cluster = std::make_unique<sched::Cluster>(w.engine,
                                                 sched::Scheduler::Default());
    for (auto& node : w.infra.nodes) w.cluster->AddNode(node.get());
  }
  mirto::AgentConfig config;
  config.host = "mirto-agent";
  config.seed = seed;
  Span span("MirtoAgent", Layer::kMirto);
  w.agent = std::make_unique<mirto::MirtoAgent>(
      *w.network, *w.cluster, w.infra, w.kb_store,
      mirto::AuthModule(util::BytesOf("perfbench")), config);
}

/// DPE design -> CSAR validation -> MIRTO deploy -> stage pods. Returns
/// whether the tenant was admitted.
bool AdmitTenant(PilotWorld& w, int tenant, std::uint64_t seed,
                 const std::vector<std::string>& edge_hosts, RoundResult& r) {
  const bool mobility = tenant % 2 == 0;
  auto scenario = std::make_unique<usecases::Scenario>(
      mobility ? usecases::SmartMobilityScenario()
               : usecases::TelerehabScenario());
  scenario->name += "-t" + std::to_string(tenant);
  scenario->dpe_input.app_name = scenario->name;
  util::Rng pick(seed, "pilot/source", static_cast<std::uint64_t>(tenant));
  scenario->source_host = edge_hosts[pick.NextBounded(edge_hosts.size())];

  util::StatusOr<dpe::DpeOutput> design = TimeUs(r.design_us, [&] {
    Span span("DpePipeline.Run", Layer::kDpe);
    dpe::DpePipeline pipeline(seed + static_cast<std::uint64_t>(tenant));
    return pipeline.Run(scenario->dpe_input);
  });
  if (!design.ok()) return false;
  {
    Span span("Csar.LowerToPods", Layer::kTosca);
    auto tpl = design->package.EntryTemplate();
    if (!tpl.ok() || !tosca::LowerToPods(*tpl).ok()) return false;
  }
  const util::Status deployed = TimeUs(r.deploy_us, [&] {
    Span span("MirtoAgent.Deploy", Layer::kMirto);
    return w.agent->Deploy(design->package);
  });
  if (!deployed.ok()) return false;
  {
    Span span("DeployScenario", Layer::kSched);
    if (!usecases::DeployScenario(*scenario, *w.cluster, seed).ok()) {
      return false;
    }
  }
  w.pipelines.push_back(std::make_unique<usecases::RequestPipeline>(
      *w.network, w.infra, *w.cluster, *scenario));
  w.scenarios.push_back(std::move(scenario));
  return true;
}

std::vector<Arrival> DrawArrivals(const PilotWorld& w, std::uint64_t seed,
                                  sim::SimTime start, sim::SimTime end) {
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    util::Rng rng(seed, "pilot/arrivals", i);
    sim::SimTime t = start;
    for (;;) {
      t = t + sim::SimTime::FromSeconds(
                  rng.NextExponential(w.scenarios[i]->arrival_rate_hz));
      if (t >= end) break;
      arrivals.push_back({t, static_cast<int>(i)});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at.ns < b.at.ns;
                   });
  return arrivals;
}

/// Reads every sample of `s` in ascending order through its public quantile
/// API (q = k / (n - 1) lands on the k-th order statistic).
void AppendSorted(const util::Samples& s, std::vector<double>& out) {
  const std::size_t n = s.count();
  if (n == 1) out.push_back(s.Quantile(0.0));
  if (n < 2) return;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(
        s.Quantile(static_cast<double>(k) / static_cast<double>(n - 1)));
  }
}

}  // namespace

RoundResult RunPilotMix(std::uint64_t seed, bool product_telemetry) {
  RoundResult r;
  const std::int64_t setup_start = HostNowNs();
  {
    Span span("telemetry.Reset", Layer::kTelemetry);
    telemetry::ResetGlobal();
    telemetry::SetEnabled(product_telemetry);
  }
  auto w = std::make_unique<PilotWorld>();
  BuildFleet(*w, seed);

  std::vector<std::string> edge_hosts;
  for (const continuum::ComputeNode* node :
       w->infra.NodesInLayer(continuum::Layer::kEdge)) {
    edge_hosts.push_back(node->id());
  }
  std::size_t admitted = 0;
  for (int t = 0; t < kTenants; ++t) {
    if (AdmitTenant(*w, t, seed, edge_hosts, r)) ++admitted;
  }
  if (auto failure = CheckAllAdmitted(kTenants, admitted)) r.Fail(*failure);

  const sim::SimTime start = w->engine.Now();
  const sim::SimTime traffic_end = start + kTraffic;
  const std::vector<Arrival> arrivals =
      DrawArrivals(*w, seed, start, traffic_end);

  w->chaos = std::make_unique<sim::ChaosController>(w->engine, seed);
  for (const std::string& host : edge_hosts) {
    continuum::ComputeNode* node = w->infra.FindNode(host);
    HostSamples* churn_us = &r.churn_op_us;
    // Nodes live in the world that owns the engine; `r` outlives the world.
    w->chaos->RegisterTarget(
        host,
        [node, churn_us] {
          TimeUs(*churn_us, [&] {
            Span span("ComputeNode.SetUp", Layer::kContinuum);
            node->SetUp(false);
          });
        },
        [node, churn_us] {
          TimeUs(*churn_us, [&] {
            Span span("ComputeNode.SetUp", Layer::kContinuum);
            node->SetUp(true);
          });
        });
    w->chaos->ScheduleRandomFaults(host, start, traffic_end, kMeanUp,
                                   kMeanDown);
  }
  mirto::MirtoAgent* agent = w->agent.get();
  HostSamples* mape_us = &r.mape_us;
  const sim::EventHandle mape = w->engine.SchedulePeriodic(
      kMapePeriod, [agent, mape_us] {
        TimeUs(*mape_us, [&] {
          Span span("MirtoAgent.RunMapeIteration", Layer::kMirto);
          agent->RunMapeIteration();
        });
      });
  r.setup_s = HostSecondsSince(setup_start);

  // --- Timed phase ---------------------------------------------------------
  const std::uint64_t spans0 = telemetry::Global().tracer.finished().size() +
                               telemetry::Global().tracer.dropped_spans();
  const std::uint64_t events0 = w->engine.executed_events();
  const std::uint64_t messages0 = w->network->messages_delivered();
  const std::uint64_t bytes0 = w->network->bytes_sent();
  const AllocCounts alloc0 = ReadAllocCounts();
  const std::int64_t timed_start = HostNowNs();
  const auto run_until = [&](sim::SimTime t) {
    const std::int64_t t0 = HostNowNs();
    {
      Span span("Engine.RunUntil", Layer::kSim);
      w->engine.RunUntil(t);
    }
    r.sim_run_s += HostSecondsSince(t0);
  };
  r.op_us.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    const std::int64_t op_start = HostNowNs();
    run_until(a.at);
    {
      Span span("RequestPipeline.LaunchRequest", Layer::kUsecases);
      w->pipelines[static_cast<std::size_t>(a.tenant)]->LaunchRequest();
    }
    r.op_us.push_back(static_cast<double>(HostNowNs() - op_start) * 1e-3);
  }
  run_until(traffic_end + kDrain);
  r.timed_s = HostSecondsSince(timed_start);
  const AllocCounts alloc1 = ReadAllocCounts();
  w->engine.Cancel(mape);

  // --- Outcomes, counters, checks -------------------------------------------
  Span outcome_span("pilot.outcomes", Layer::kUtil);
  std::string witness;
  for (const auto& pipeline : w->pipelines) {
    const usecases::ScenarioKpis& k = pipeline->kpis();
    r.completed += k.completed;
    r.failed += k.failed;
    r.late += k.violations;
    r.energy_mj += k.compute_energy_mj;
    AppendSorted(k.latency_ms, r.sim_latency_ms);
    char line[160];
    std::snprintf(line, sizeof(line), "%llu %llu %llu %.17g %.17g %.17g\n",
                  static_cast<unsigned long long>(k.completed),
                  static_cast<unsigned long long>(k.failed),
                  static_cast<unsigned long long>(k.violations),
                  k.compute_energy_mj, k.latency_ms.p50(),
                  k.latency_ms.p99());
    witness += line;
  }
  r.attempted = arrivals.size();
  if (auto failure =
          CheckRequestConservation(r.attempted, r.completed, r.failed)) {
    r.Fail(*failure);
  }
  const mirto::AgentStats& stats = agent->stats();
  witness += w->chaos->TimelineString();
  witness += "mape=" + std::to_string(stats.mape_iterations) +
             " observed=" + std::to_string(stats.nodes_observed) +
             " realloc=" + std::to_string(stats.reallocations) +
             " slo=" + std::to_string(stats.slo_publishes) + "\n";
  r.witness = util::Fnv1a64(witness);

  WorkCounters& c = r.counters;
  c.events = util::SubSat(w->engine.executed_events(), events0);
  c.messages = util::SubSat(w->network->messages_delivered(), messages0);
  c.bytes = util::SubSat(w->network->bytes_sent(), bytes0);
  c.dropped = w->network->messages_dropped();
  c.net_retries = w->network->retries();
  c.pending_pods = w->cluster->PendingPods();
  c.mape_iterations = stats.mape_iterations;
  c.nodes_observed = stats.nodes_observed;
  c.reallocations = stats.reallocations;
  c.slo_publishes = stats.slo_publishes;
  const std::uint64_t spans1 = telemetry::Global().tracer.finished().size() +
                               telemetry::Global().tracer.dropped_spans();
  c.telemetry_spans = util::SubSat(spans1, spans0);
  c.alloc_count = util::SubSat(alloc1.count, alloc0.count);
  c.alloc_bytes = util::SubSat(alloc1.bytes, alloc0.bytes);

  w->chaos.reset();
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
  return r;
}

}  // namespace perfbench

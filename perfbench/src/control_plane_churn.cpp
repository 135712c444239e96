// control_plane_churn: the A9 zoned fleet under a closed-loop control-plane
// caller.
//
// Nodes are striped over zones and every pod carries a zone selector, the
// shape that keeps indexed candidate sets small. Set-up fills the fleet to
// about 85% of its memory. The caller then issues one call at a time, each
// after the previous returns: pod submissions (BindPod, then the pod's start
// task on its node; a refused pod is withdrawn), deletions, and A9-shaped node churn over about 1% of the
// fleet per tick (down + Reconcile + up, memory wiggles, task submissions),
// with one MAPE iteration per 250 ms tick. Telemetry is off, the network
// carries nothing: this is the mechanism workload for scheduler, ledger and
// MAPE work, and the no-change check for engine, transport and telemetry.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "continuum/infrastructure.hpp"
#include "kb/store.hpp"
#include "mirto/agent.hpp"
#include "net/transport.hpp"
#include "sched/controller.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace myrtus;

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kZones = kNodes / 100;
constexpr std::uint64_t kNodeMemMb = 8192;
constexpr double kFillFraction = 0.85;
constexpr int kTicks = 300;
constexpr int kPodOpsPerTick = 150;
constexpr std::size_t kNodeOpsPerTick = kNodes / 100;  // ~1% node churn
// One submission in this many asks for twice a node's memory, a mis-sized
// request the scheduler must refuse; the caller then withdraws it.
constexpr std::uint64_t kMisSizedEvery = 32;
constexpr int kCheckEveryTicks = 20;
constexpr std::size_t kVerdictProbes = 16;
const sim::SimTime kTick = sim::SimTime::Millis(250);
const sim::SimTime kDrain = sim::SimTime::Seconds(5);

constexpr std::uint64_t kMemChoicesMb[] = {16, 32, 32, 64, 64, 64, 128, 128,
                                           256, 512};
constexpr double kCpuChoices[] = {0.1, 0.2, 0.2, 0.5, 1.0};

double MeanPodMemMb() {
  double sum = 0.0;
  for (const std::uint64_t mb : kMemChoicesMb) sum += static_cast<double>(mb);
  return sum / static_cast<double>(std::size(kMemChoicesMb));
}

/// "<tag><n>", the naming of pods ("p"), nodes ("n") and zones ("z").
std::string Tagged(char tag, std::uint64_t n) {
  std::string out(1, tag);
  out += std::to_string(n);
  return out;
}

sched::PodSpec DrawPod(util::Rng& rng, std::uint64_t serial) {
  sched::PodSpec pod;
  pod.name = Tagged('p', serial);
  pod.cpu_request = kCpuChoices[rng.NextBounded(std::size(kCpuChoices))];
  pod.mem_request_mb = kMemChoicesMb[rng.NextBounded(std::size(kMemChoicesMb))];
  pod.priority = static_cast<int>(rng.NextBounded(5));
  pod.node_selector["zone"] = Tagged('z', rng.NextBounded(kZones));
  if (serial % 7 == 0) pod.min_security = security::SecurityLevel::kMedium;
  if (serial % 64 == 0) pod.needs_accelerator = true;
  return pod;
}

continuum::TaskDemand StartTask(util::Rng& rng) {
  continuum::TaskDemand demand;
  demand.cycles = 20'000'000 + rng.NextBounded(80'000'000);
  demand.bytes_in = 65536;
  demand.parallel_fraction = 0.5;
  return demand;
}

/// Index of node "n<i>" in the fleet (BuildFleet names nodes by index).
std::size_t NodeIndex(const std::string& node_id) {
  return static_cast<std::size_t>(std::stoul(node_id.substr(1)));
}

/// Owns one churn world; declaration order is teardown-safe.
struct ChurnWorld {
  sim::Engine engine;
  continuum::Infrastructure infra;
  std::unique_ptr<sched::Cluster> cluster;
  std::unique_ptr<net::Network> network;
  kb::Store kb_store;
  std::unique_ptr<mirto::MirtoAgent> agent;
};

void BuildFleet(ChurnWorld& w, std::uint64_t seed) {
  {
    Span span("Cluster.AddNode", Layer::kSched);
    w.cluster = std::make_unique<sched::Cluster>(w.engine,
                                                 sched::Scheduler::Default());
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::string id = Tagged('n', i);
      const std::size_t pos = i / kZones;
      auto node = std::make_unique<continuum::ComputeNode>(
          w.engine, id, static_cast<continuum::Layer>(pos % 3), "bench",
          static_cast<security::SecurityLevel>(pos % 3), kNodeMemMb);
      node->AddDevice(continuum::Device(id + "/cpu",
                                        continuum::DeviceKind::kServerCpu, 32,
                                        {continuum::OperatingPoint{"base"}}));
      if (pos % 10 == 0) {
        node->AddDevice(continuum::Device(
            id + "/fpga", continuum::DeviceKind::kFpgaAccelerator, 1,
            {continuum::OperatingPoint{"accel"}}));
      }
      w.cluster->AddNode(node.get(), {{"zone", Tagged('z', i % kZones)}});
      w.infra.nodes.push_back(std::move(node));
    }
  }
  // The agent uses the network only for RPC registration and the sim clock.
  net::Topology topology;
  topology.AddBidirectional("mirto-agent", "hub", sim::SimTime::Micros(100),
                            1e9);
  {
    Span span("Network", Layer::kNet);
    w.network = std::make_unique<net::Network>(w.engine, std::move(topology),
                                               seed);
  }
  mirto::AgentConfig config;
  config.host = "mirto-agent";
  config.seed = seed;
  Span span("MirtoAgent", Layer::kMirto);
  w.agent = std::make_unique<mirto::MirtoAgent>(
      *w.network, *w.cluster, w.infra, w.kb_store,
      mirto::AuthModule(util::BytesOf("perfbench")), config);
}

/// Start-task outcomes land here from completion callbacks.
struct StartLedger {
  std::vector<double> latency_ms;
  std::uint64_t late = 0;
  double energy_mj = 0.0;
};

}  // namespace

RoundResult RunControlPlaneChurn(std::uint64_t seed, bool product_telemetry) {
  RoundResult r;
  const std::int64_t setup_start = HostNowNs();
  telemetry::ResetGlobal();
  telemetry::SetEnabled(product_telemetry);
  auto w = std::make_unique<ChurnWorld>();
  BuildFleet(*w, seed);

  util::Rng pod_rng(seed, "churn/pods");
  util::Rng op_rng(seed, "churn/ops");
  std::uint64_t serial = 0;
  std::uint64_t submissions = 0;
  std::vector<std::string> live;  // pods the caller has submitted and not deleted
  const auto fill = static_cast<std::size_t>(
      kFillFraction * static_cast<double>(kNodes * kNodeMemMb) / MeanPodMemMb());
  live.reserve(fill + 1024);
  {
    Span span("fill.BindPod", Layer::kSched);
    for (std::size_t i = 0; i < fill; ++i) {
      const sched::PodSpec pod = DrawPod(pod_rng, serial++);
      if (w->cluster->BindPod(pod).ok()) {
        live.push_back(pod.name);
      } else if (!w->cluster->DeletePod(pod.name).ok()) {
        r.Fail("cannot withdraw refused fill pod " + pod.name);
      }
    }
  }
  r.setup_s = HostSecondsSince(setup_start);

  // --- Timed phase -----------------------------------------------------------
  auto ledger = std::make_shared<StartLedger>();
  std::string outcomes;
  outcomes.reserve(static_cast<std::size_t>(kTicks) * kPodOpsPerTick * 8);
  const sched::Scheduler reference = sched::Scheduler::Default();
  std::vector<const continuum::ComputeNode*> all_nodes;
  for (const auto& node : w->infra.nodes) all_nodes.push_back(node.get());
  const std::uint64_t events0 = w->engine.executed_events();
  double check_s = 0.0;
  const AllocCounts alloc0 = ReadAllocCounts();
  const std::int64_t timed_start = HostNowNs();

  const auto submit_start_task = [&](continuum::ComputeNode& node,
                                     util::Rng& rng) {
    const sim::SimTime issued = w->engine.Now();
    sim::Engine* engine = &w->engine;
    Span span("ComputeNode.Submit", Layer::kContinuum);
    node.Submit(StartTask(rng),
                [ledger, engine, issued](const continuum::TaskReport& report) {
                  const double ms = (engine->Now() - issued).ToMillisF();
                  ledger->latency_ms.push_back(ms);
                  if (ms > kPodStartDeadlineMs) ++ledger->late;
                  ledger->energy_mj += report.energy_mj;
                });
  };

  for (int tick = 0; tick < kTicks; ++tick) {
    for (int k = 0; k < kPodOpsPerTick; ++k) {
      ++r.attempted;
      const bool submit = live.empty() || op_rng.NextBool(0.5);
      const std::int64_t op_start = HostNowNs();
      if (submit) {
        sched::PodSpec pod = DrawPod(pod_rng, serial++);
        if (++submissions % kMisSizedEvery == 0) {
          pod.mem_request_mb = 2 * kNodeMemMb;
        }
        auto bound = TimeUs(r.bind_us, [&] {
          Span span("Cluster.BindPod", Layer::kSched);
          return w->cluster->BindPod(pod);
        });
        if (bound.ok()) {
          live.push_back(pod.name);
          ++r.completed;
          submit_start_task(*w->infra.nodes[NodeIndex(*bound)], op_rng);
          outcomes += *bound;
        } else {
          // The refused pod stays pending in the cluster until withdrawn.
          ++r.failed;
          ++r.counters.bind_failures;
          const util::Status withdrawn = TimeUs(r.delete_us, [&] {
            Span span("Cluster.DeletePod", Layer::kSched);
            return w->cluster->DeletePod(pod.name);
          });
          if (!withdrawn.ok()) r.Fail("cannot withdraw refused pod " + pod.name);
          outcomes += '-';
        }
      } else {
        const std::size_t victim = op_rng.NextBounded(live.size());
        std::swap(live[victim], live.back());
        const util::Status deleted = TimeUs(r.delete_us, [&] {
          Span span("Cluster.DeletePod", Layer::kSched);
          return w->cluster->DeletePod(live.back());
        });
        live.pop_back();
        if (deleted.ok()) {
          ++r.completed;
        } else {
          ++r.failed;
        }
        outcomes += deleted.ok() ? 'd' : 'D';
      }
      r.op_us.push_back(static_cast<double>(HostNowNs() - op_start) * 1e-3);
      outcomes += '\n';
    }

    for (std::size_t k = 0; k < kNodeOpsPerTick; ++k) {
      ++r.attempted;
      continuum::ComputeNode& node =
          *w->infra.nodes[op_rng.NextBounded(kNodes)];
      const auto action = op_rng.NextBounded(3);
      const std::int64_t op_start = HostNowNs();
      std::int64_t check_ns = 0;
      if (action == 0) {
        TimeUs(r.churn_op_us, [&] {
          Span span("ComputeNode.SetUp", Layer::kContinuum);
          node.SetUp(false);
        });
        TimeUs(r.reconcile_us, [&] {
          Span span("Cluster.Reconcile", Layer::kSched);
          w->cluster->Reconcile();
        });
        const std::int64_t check_start = HostNowNs();
        if (auto failure = CheckNoPodOnDownNodes(*w->cluster, {&node})) {
          r.Fail(*failure);
        }
        check_ns = HostNowNs() - check_start;
        TimeUs(r.churn_op_us, [&] {
          Span span("ComputeNode.SetUp", Layer::kContinuum);
          node.SetUp(true);
        });
      } else if (action == 1) {
        TimeUs(r.churn_op_us, [&] {
          Span span("ComputeNode.ReserveMemory", Layer::kContinuum);
          if (node.ReserveMemory(8).ok()) node.ReleaseMemory(8);
        });
      } else {
        TimeUs(r.churn_op_us, [&] { submit_start_task(node, op_rng); });
      }
      ++r.completed;
      r.op_us.push_back(
          static_cast<double>(HostNowNs() - op_start - check_ns) * 1e-3);
      check_s += static_cast<double>(check_ns) * 1e-9;
    }

    const std::int64_t run_start = HostNowNs();
    {
      Span span("Engine.RunUntil", Layer::kSim);
      w->engine.RunUntil(w->engine.Now() + kTick);
    }
    r.sim_run_s += HostSecondsSince(run_start);
    TimeUs(r.mape_us, [&] {
      Span span("MirtoAgent.RunMapeIteration", Layer::kMirto);
      w->agent->RunMapeIteration();
    });

    if ((tick + 1) % kCheckEveryTicks == 0) {
      const std::int64_t check_start = HostNowNs();
      Span span("checks", Layer::kUtil);
      std::vector<sched::PodSpec> probes;
      util::Rng probe_rng(seed, "churn/probes",
                          static_cast<std::uint64_t>(tick));
      for (std::size_t p = 0; p < kVerdictProbes; ++p) {
        sched::PodSpec probe = DrawPod(probe_rng, 1'000'000'000 + p);
        if (p % 5 == 0) probe.cpu_request = 64.0;  // infeasible on purpose
        probes.push_back(std::move(probe));
      }
      if (auto failure = CheckVerdicts(*w->cluster, reference, probes)) {
        r.Fail(*failure);
      }
      if (auto failure = CheckPodAccounting(w->cluster->RunningPods(),
                                            w->cluster->PendingPods(),
                                            live.size())) {
        r.Fail(*failure);
      }
      check_s += HostSecondsSince(check_start);
    }
  }
  {
    const std::int64_t run_start = HostNowNs();
    Span span("Engine.RunUntil", Layer::kSim);
    w->engine.RunUntil(w->engine.Now() + kDrain);
    r.sim_run_s += HostSecondsSince(run_start);
  }
  r.timed_s = HostSecondsSince(timed_start) - check_s;
  const AllocCounts alloc1 = ReadAllocCounts();

  // --- Outcomes, counters, checks ----------------------------------------------
  Span outcome_span("churn.outcomes", Layer::kUtil);
  if (auto failure = CheckNoPodOnDownNodes(*w->cluster, all_nodes)) {
    r.Fail(*failure);
  }
  if (auto failure = CheckPodAccounting(w->cluster->RunningPods(),
                                        w->cluster->PendingPods(),
                                        live.size())) {
    r.Fail(*failure);
  }
  r.late = ledger->late;
  r.energy_mj = ledger->energy_mj;
  r.sim_latency_ms = ledger->latency_ms;
  const mirto::AgentStats& stats = w->agent->stats();
  char line[200];
  std::snprintf(line, sizeof(line),
                "running=%zu pending=%zu starts=%zu late=%llu energy=%.17g "
                "mape=%llu observed=%llu realloc=%llu slo=%llu\n",
                w->cluster->RunningPods(), w->cluster->PendingPods(),
                ledger->latency_ms.size(),
                static_cast<unsigned long long>(ledger->late),
                ledger->energy_mj,
                static_cast<unsigned long long>(stats.mape_iterations),
                static_cast<unsigned long long>(stats.nodes_observed),
                static_cast<unsigned long long>(stats.reallocations),
                static_cast<unsigned long long>(stats.slo_publishes));
  outcomes += line;
  for (const double ms : ledger->latency_ms) {
    outcomes += std::to_string(static_cast<std::int64_t>(ms * 1e6));
    outcomes += ' ';
  }
  r.witness = util::Fnv1a64(outcomes);

  WorkCounters& c = r.counters;
  c.events = util::SubSat(w->engine.executed_events(), events0);
  c.messages = w->network->messages_delivered();
  c.bytes = w->network->bytes_sent();
  c.pending_pods = w->cluster->PendingPods();
  c.mape_iterations = stats.mape_iterations;
  c.nodes_observed = stats.nodes_observed;
  c.reallocations = stats.reallocations;
  c.slo_publishes = stats.slo_publishes;
  c.alloc_count = util::SubSat(alloc1.count, alloc0.count);
  c.alloc_bytes = util::SubSat(alloc1.bytes, alloc0.bytes);
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
  return r;
}

}  // namespace perfbench

// kb_replicated: a 3-replica KB (Raft + MVCC store per replica) on 2 ms links
// under closed-loop clients.
//
// Each client waits for its reply before issuing the next op, over a seeded
// 70/30 read/write mix on a skewed key space under /registry/nodes/. Every
// replica's store carries a prefix watcher there, the way MIRTO agents watch
// node records. The leader is crashed and recovered at a fixed cadence: one
// failover's gap swings with the randomized election timeout, so the round
// averages over many. Telemetry is off. This is the only workload that runs
// Raft, KbClient and the transport's RPC path under concurrency, and the
// no-change check for scheduler, MAPE and telemetry work.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "kb/cluster.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace myrtus;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kClients = 4;  // <= the cores of a small host
constexpr std::size_t kKeys = 2048;
constexpr double kReadShare = 0.7;
const sim::SimTime kLink = sim::SimTime::Millis(2);
const sim::SimTime kJitter = sim::SimTime::Micros(400);
const sim::SimTime kTraffic = sim::SimTime::Seconds(600);
const sim::SimTime kFirstCrash = sim::SimTime::Millis(1500);
const sim::SimTime kCrashEvery = sim::SimTime::Seconds(2);
const sim::SimTime kCrashDown = sim::SimTime::Millis(400);
const sim::SimTime kSettle = sim::SimTime::Seconds(3);
const std::string kPrefix = "/registry/nodes/";

std::string KeyName(std::size_t k) { return kPrefix + "n" + std::to_string(k); }

/// The round's world plus the closed-loop client state. Heap-allocated and
/// destroyed only after the engine has stopped running its events.
struct KbWorld {
  sim::Engine engine;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<kb::KbCluster> cluster;
  std::vector<std::unique_ptr<kb::KbClient>> clients;
  std::vector<util::Rng> client_rngs;
  std::vector<std::uint64_t> client_seq;

  RoundResult* result = nullptr;
  sim::SimTime traffic_end;
  std::size_t preload_next = 0;
  std::size_t preload_done = 0;
  std::map<std::string, std::uint64_t> acked_puts;
  std::uint64_t watch_events = 0;
  std::string outcomes;
  // Failover tracking: crash time of the failover still waiting for its
  // first op issued after the crash to succeed.
  bool awaiting_failover = false;
  sim::SimTime crashed_at;

  void IssueNext(std::size_t c);
  void Preload(std::size_t c);
};

void KbWorld::Preload(std::size_t c) {
  if (preload_next >= kKeys) return;
  const std::string key = KeyName(preload_next++);
  clients[c]->Put(key, util::Json(0), [this, c, key](util::Status s) {
    if (s.ok()) {
      ++acked_puts[key];
    } else {
      result->Fail("preload Put " + key + ": " + s.message());
    }
    ++preload_done;
    Preload(c);
  });
}

void KbWorld::IssueNext(std::size_t c) {
  const sim::SimTime issued = engine.Now();
  if (issued >= traffic_end) return;
  util::Rng& rng = client_rngs[c];
  const bool read = rng.NextBool(kReadShare);
  // Skewed key choice: squaring a uniform draw favours low key indexes.
  const double u = rng.NextDouble();
  const auto k = std::min(kKeys - 1, static_cast<std::size_t>(
                                         u * u * static_cast<double>(kKeys)));
  const std::string key = KeyName(k);
  ++result->attempted;
  const std::int64_t host_start = HostNowNs();
  const auto finish = [this, c, issued, host_start, read, key](bool ok) {
    RoundResult& r = *result;
    r.op_us.push_back(static_cast<double>(HostNowNs() - host_start) * 1e-3);
    const sim::SimTime now = engine.Now();
    const double ms = (now - issued).ToMillisF();
    if (ok) {
      ++r.completed;
      r.sim_latency_ms.push_back(ms);
      if (ms > kKbOpDeadlineMs) ++r.late;
      if (awaiting_failover && issued >= crashed_at) {
        r.failover_gaps_ms.push_back((now - crashed_at).ToMillisF());
        awaiting_failover = false;
      }
    } else {
      ++r.failed;
    }
    outcomes += std::to_string(c) + (read ? 'r' : 'w') + key +
                (ok ? '+' : '-') + std::to_string((now - issued).ns) + '\n';
    IssueNext(c);
  };
  if (read) {
    Span span("KbClient.Get", Layer::kKb);
    clients[c]->Get(key, [finish](util::StatusOr<util::Json> v) {
      finish(v.ok());
    });
  } else {
    Span span("KbClient.Put", Layer::kKb);
    const std::uint64_t seq = ++client_seq[c];
    clients[c]->Put(key,
                    util::Json::MakeObject()
                        .Set("client", static_cast<std::uint64_t>(c))
                        .Set("seq", seq),
                    [this, finish, key](util::Status s) {
                      if (s.ok()) ++acked_puts[key];
                      finish(s.ok());
                    });
  }
}

void RunUntil(KbWorld& w, sim::SimTime t, RoundResult& r) {
  const std::int64_t start = HostNowNs();
  {
    Span span("Engine.RunUntil", Layer::kSim);
    w.engine.RunUntil(t);
  }
  r.sim_run_s += HostSecondsSince(start);
}

}  // namespace

RoundResult RunKbReplicated(std::uint64_t seed, bool product_telemetry) {
  RoundResult r;
  const std::int64_t setup_start = HostNowNs();
  telemetry::ResetGlobal();
  telemetry::SetEnabled(product_telemetry);
  auto w = std::make_unique<KbWorld>();
  w->result = &r;

  std::vector<net::HostId> replicas;
  net::Topology topology;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back("kb-" + std::to_string(i));
  }
  for (std::size_t i = 0; i < kReplicas; ++i) {
    for (std::size_t j = i + 1; j < kReplicas; ++j) {
      topology.AddBidirectional(replicas[i], replicas[j], kLink, 1e9, 0.0,
                                kJitter);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      topology.AddBidirectional("client-" + std::to_string(c), replicas[i],
                                kLink, 1e9, 0.0, kJitter);
    }
  }
  {
    Span span("Network", Layer::kNet);
    w->network = std::make_unique<net::Network>(w->engine, std::move(topology),
                                                seed);
  }
  {
    Span span("KbCluster", Layer::kKb);
    w->cluster = std::make_unique<kb::KbCluster>(*w->network, replicas, seed);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      KbWorld* world = w.get();
      w->cluster->replica(i).store->Watch(
          kPrefix, [world](const kb::WatchEvent&) { ++world->watch_events; });
    }
    w->cluster->Start();
    for (std::size_t c = 0; c < kClients; ++c) {
      w->clients.push_back(std::make_unique<kb::KbClient>(
          *w->network, *w->cluster, "client-" + std::to_string(c)));
      w->client_rngs.emplace_back(seed, "kb/client", c);
      w->client_seq.push_back(0);
    }
  }
  // Elect a leader, then load every key once.
  RunUntil(*w, sim::SimTime::Seconds(1), r);
  for (std::size_t c = 0; c < kClients; ++c) w->Preload(c);
  while (w->preload_done < kKeys && !w->engine.empty()) {
    RunUntil(*w, w->engine.Now() + sim::SimTime::Millis(100), r);
  }
  if (w->preload_done < kKeys) r.Fail("preload did not finish");
  r.sim_run_s = 0.0;
  r.setup_s = HostSecondsSince(setup_start);

  // --- Timed phase -----------------------------------------------------------
  const sim::SimTime start = w->engine.Now();
  w->traffic_end = start + kTraffic;
  const std::uint64_t events0 = w->engine.executed_events();
  const std::uint64_t messages0 = w->network->messages_delivered();
  const std::uint64_t bytes0 = w->network->bytes_sent();
  const std::uint64_t dropped0 = w->network->messages_dropped();
  const std::uint64_t retries0 = w->network->retries();
  const std::uint64_t watch0 = w->watch_events;
  KbWorld* world = w.get();
  for (sim::SimTime t = start + kFirstCrash; t + kCrashDown < w->traffic_end;
       t = t + kCrashEvery) {
    // The world owns the engine, so no event outlives `world`.
    w->engine.ScheduleAt(t, [world] {
      const int leader = world->cluster->LeaderIndex();
      if (leader < 0) return;
      const auto index = static_cast<std::size_t>(leader);
      {
        Span span("KbCluster.Crash", Layer::kKb);
        world->cluster->Crash(index);
      }
      world->awaiting_failover = true;
      world->crashed_at = world->engine.Now();
      world->engine.ScheduleAfter(kCrashDown, [world, index] {
        Span span("KbCluster.Recover", Layer::kKb);
        world->cluster->Recover(index);
      });
    });
  }
  const AllocCounts alloc0 = ReadAllocCounts();
  const std::int64_t timed_start = HostNowNs();
  for (std::size_t c = 0; c < kClients; ++c) w->IssueNext(c);
  RunUntil(*w, w->traffic_end, r);
  // Ops in flight at the end of traffic still finish and count.
  RunUntil(*w, w->traffic_end + kSettle, r);
  r.timed_s = HostSecondsSince(timed_start);
  const AllocCounts alloc1 = ReadAllocCounts();

  // --- Outcomes, counters, checks ----------------------------------------------
  Span outcome_span("kb.outcomes", Layer::kUtil);
  std::vector<const kb::Store*> stores;
  WorkCounters& c = r.counters;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    kb::Replica& replica = w->cluster->replica(i);
    stores.push_back(replica.store.get());
    c.kb_commits = std::max<std::uint64_t>(
        c.kb_commits, static_cast<std::uint64_t>(replica.raft->commit_index()));
    c.kb_elections = std::max<std::uint64_t>(
        c.kb_elections, static_cast<std::uint64_t>(replica.raft->current_term()));
    c.kb_log_entries =
        std::max<std::uint64_t>(c.kb_log_entries, replica.raft->log_size());
  }
  if (auto failure = CheckReplicasIdentical(stores)) r.Fail(*failure);
  if (auto failure = CheckNoLostWrites(*stores.front(), w->acked_puts)) {
    r.Fail(*failure);
  }
  for (const auto& client : w->clients) c.kb_client_retries += client->retries();
  c.events = util::SubSat(w->engine.executed_events(), events0);
  c.messages = util::SubSat(w->network->messages_delivered(), messages0);
  c.bytes = util::SubSat(w->network->bytes_sent(), bytes0);
  c.dropped = util::SubSat(w->network->messages_dropped(), dropped0);
  c.net_retries = util::SubSat(w->network->retries(), retries0);
  c.kb_watch_events = util::SubSat(w->watch_events, watch0);
  c.alloc_count = util::SubSat(alloc1.count, alloc0.count);
  c.alloc_bytes = util::SubSat(alloc1.bytes, alloc0.bytes);

  w->outcomes += "rev=" + std::to_string(stores.front()->revision()) +
                 " term=" + std::to_string(c.kb_elections) +
                 " commits=" + std::to_string(c.kb_commits) + "\n";
  r.witness = util::Fnv1a64(w->outcomes);
  telemetry::SetEnabled(false);
  telemetry::ResetGlobal();
  return r;
}

}  // namespace perfbench

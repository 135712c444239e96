#include "checks.hpp"

#include "util/bytes.hpp"

namespace perfbench {

CheckResult CheckAllAdmitted(std::size_t tenants, std::size_t admitted) {
  if (admitted == tenants) return std::nullopt;
  return "admitted " + std::to_string(admitted) + " of " +
         std::to_string(tenants) + " tenants";
}

CheckResult CheckRequestConservation(std::uint64_t launched,
                                     std::uint64_t completed,
                                     std::uint64_t failed) {
  if (launched == completed + failed) return std::nullopt;
  return "launched " + std::to_string(launched) + " requests but " +
         std::to_string(completed) + " completed + " + std::to_string(failed) +
         " failed";
}

CheckResult CheckVerdicts(myrtus::sched::Cluster& cluster,
                          const myrtus::sched::Scheduler& reference,
                          const std::vector<myrtus::sched::PodSpec>& probes) {
  std::string indexed;
  std::string scanned;
  const std::vector<myrtus::sched::NodeState*> nodes = cluster.NodeStates();
  for (const myrtus::sched::PodSpec& pod : probes) {
    auto a = cluster.DryRunSchedule(pod);
    auto b = reference.Schedule(pod, nodes);
    indexed += a.ok() ? a->node_id : a.status().message();
    indexed.push_back('\n');
    scanned += b.ok() ? b->node_id : b.status().message();
    scanned.push_back('\n');
  }
  if (myrtus::util::Fnv1a64(indexed) == myrtus::util::Fnv1a64(scanned)) return std::nullopt;
  return "indexed dry-run verdicts differ from the reference scan over " +
         std::to_string(probes.size()) + " probes";
}

CheckResult CheckPodAccounting(std::size_t running, std::size_t pending,
                               std::size_t live) {
  if (running + pending == live) return std::nullopt;
  return "running " + std::to_string(running) + " + pending " +
         std::to_string(pending) + " != live " + std::to_string(live);
}

CheckResult CheckNoPodOnDownNodes(
    const myrtus::sched::Cluster& cluster,
    const std::vector<const myrtus::continuum::ComputeNode*>& nodes) {
  for (const myrtus::continuum::ComputeNode* node : nodes) {
    if (node->up()) continue;
    const std::vector<myrtus::sched::PodView> pods = cluster.PodsOnNode(node->id());
    if (!pods.empty()) {
      return "pod " + pods.front().name() + " bound to down node " +
             node->id() + " after Reconcile";
    }
  }
  return std::nullopt;
}

CheckResult CheckReplicasIdentical(const std::vector<const myrtus::kb::Store*>& stores) {
  if (stores.empty()) return std::nullopt;
  const auto dump = [](const myrtus::kb::Store& store) {
    std::string out = "rev=" + std::to_string(store.revision()) + "\n";
    for (const myrtus::kb::KeyValue& kv : store.Range("")) {
      out += kv.key + "=" + kv.value.Dump() + " c" +
             std::to_string(kv.create_revision) + " m" +
             std::to_string(kv.mod_revision) + " v" +
             std::to_string(kv.version) + "\n";
    }
    return out;
  };
  const std::string first = dump(*stores.front());
  for (std::size_t i = 1; i < stores.size(); ++i) {
    if (dump(*stores[i]) != first) {
      return "replica " + std::to_string(i) + " store differs from replica 0";
    }
  }
  return std::nullopt;
}

CheckResult CheckNoLostWrites(
    const myrtus::kb::Store& store,
    const std::map<std::string, std::uint64_t>& acked_puts) {
  for (const auto& [key, acked] : acked_puts) {
    auto kv = store.Get(key);
    const std::int64_t version = kv.ok() ? kv->version : 0;
    if (version < 0 || static_cast<std::uint64_t>(version) < acked) {
      return "key " + key + " has version " + std::to_string(version) +
             " but " + std::to_string(acked) + " acknowledged Puts";
    }
  }
  return std::nullopt;
}

}  // namespace perfbench

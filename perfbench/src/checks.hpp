// Correctness checks the workloads run every round. Each returns nullopt when
// the check holds and a one-line description of the violation otherwise, so
// tests can hand them a seeded wrong answer and watch them trip.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "continuum/node.hpp"
#include "kb/store.hpp"
#include "sched/controller.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

using CheckResult = std::optional<std::string>;

/// pilot_mix: every tenant passed DPE design, CSAR validation and deployment.
CheckResult CheckAllAdmitted(std::size_t tenants, std::size_t admitted);

/// pilot_mix: after the drain, every launched request has an outcome.
CheckResult CheckRequestConservation(std::uint64_t launched,
                                     std::uint64_t completed,
                                     std::uint64_t failed);

/// control_plane_churn: the cluster's indexed dry-run verdicts equal the
/// reference scheduler's scan over NodeStates(), compared as FNV-1a digests
/// of the verdict lines (winner node or failure message).
CheckResult CheckVerdicts(myrtus::sched::Cluster& cluster,
                          const myrtus::sched::Scheduler& reference,
                          const std::vector<myrtus::sched::PodSpec>& probes);

/// control_plane_churn: running + pending equals the pods the caller holds.
CheckResult CheckPodAccounting(std::size_t running, std::size_t pending,
                               std::size_t live);

/// control_plane_churn: after Reconcile no pod is bound to a down node.
CheckResult CheckNoPodOnDownNodes(
    const myrtus::sched::Cluster& cluster,
    const std::vector<const myrtus::continuum::ComputeNode*>& nodes);

/// kb_replicated: all replicas hold identical stores (keys, values and MVCC
/// metadata) and the same revision.
CheckResult CheckReplicasIdentical(const std::vector<const myrtus::kb::Store*>& stores);

/// kb_replicated: every key's MVCC version is at least its count of
/// acknowledged Puts, so no acknowledged write was lost.
CheckResult CheckNoLostWrites(
    const myrtus::kb::Store& store,
    const std::map<std::string, std::uint64_t>& acked_puts);

}  // namespace perfbench

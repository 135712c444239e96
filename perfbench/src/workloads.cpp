#include "workloads.hpp"

namespace perfbench {

const Workload* FindWorkload(std::string_view name) {
  static const Workload kWorkloads[] = {
      {"pilot_mix", &RunPilotMix, true},
      {"control_plane_churn", &RunControlPlaneChurn, false},
      {"kb_replicated", &RunKbReplicated, false},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

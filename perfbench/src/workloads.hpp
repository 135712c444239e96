// The three perfbench workloads. Each round builds a fresh world from the
// seed (set-up), drives a fixed, seed-determined amount of work through it
// (the timed phase), runs its correctness checks, and returns a RoundResult.
// The amount of work does not depend on host speed, so sim-time outcomes,
// work counters and the witness repeat exactly at one seed.
#pragma once

#include <cstdint>
#include <string_view>

#include "harness.hpp"

namespace perfbench {

/// Deadlines that define a late op, in sim milliseconds.
/// Pilot requests use their scenario's own deadline (150 / 250 ms).
/// A pod start later than MIRTO's pod.start_wait SLO threshold is late.
inline constexpr double kPodStartDeadlineMs = 500.0;
/// A KB op slower than one MAPE period (250 ms) leaves an agent acting on
/// state older than its own loop.
inline constexpr double kKbOpDeadlineMs = 250.0;

/// `product_telemetry` turns the system's own tracer, metrics and flight
/// recorder on for the round (telemetry::SetEnabled).
RoundResult RunPilotMix(std::uint64_t seed, bool product_telemetry);
RoundResult RunControlPlaneChurn(std::uint64_t seed, bool product_telemetry);
RoundResult RunKbReplicated(std::uint64_t seed, bool product_telemetry);

struct Workload {
  std::string_view name;
  RoundResult (*run)(std::uint64_t seed, bool product_telemetry);
  bool product_telemetry;  // the setting of the timed runs
};

/// The registered workloads, in BENCHMARK.json order.
const Workload* FindWorkload(std::string_view name);

}  // namespace perfbench

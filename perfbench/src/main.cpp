// perfbench: the repository benchmark. One command runs one workload at one
// seed for a host-time budget and prints every metric by name with its unit;
// the last line is a JSON result. Usage:
//
//   perfbench --workload <pilot_mix|control_plane_churn|kb_replicated>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run first plays one warm-up round at a different seed (filling caches and
// proving the witness depends on the seed), then repeats rounds at the given
// seed until the budget is spent. Every round at one seed must reproduce the
// same witness and work counters. --trace 0 reports end-to-end metrics from
// untraced rounds; --trace 1 alternates untraced and traced rounds and
// reports per-layer metrics, self time per layer and the tracing overhead.
// Exit status: 0 when every check holds, 1 when a check failed, 2 on usage
// errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "report.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinRounds = 3;
constexpr std::uint64_t kWarmupSeedOffset = 0x9e3779b9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return false;
      args.trace = v == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

/// How one round is played.
struct RoundMode {
  const char* label;
  bool traced;     // benchmark spans recorded
  bool telemetry;  // product telemetry on
};

void PrintMetric(const Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-30s %16.6f %-10s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // The modes a run cycles through. The traced run compares untraced against
  // traced rounds, and on a workload whose timed runs keep product telemetry
  // on, also against a round with it off.
  std::vector<RoundMode> modes = {{"untraced", false, workload->product_telemetry}};
  if (args.trace) {
    modes.push_back({"traced", true, workload->product_telemetry});
    if (workload->product_telemetry) modes.push_back({"telemetry-off", false, false});
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d "
              "parallel_workers=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, myrtus::util::ParallelWorkers());
  std::vector<std::string> failures;

  const RoundResult warmup =
      workload->run(args.seed + kWarmupSeedOffset, workload->product_telemetry);
  for (const std::string& f : warmup.check_failures) failures.push_back("warm-up: " + f);

  std::vector<std::vector<RoundResult>> by_mode(modes.size());
  std::vector<std::vector<double>> self_ns(kNumLayers);
  SpanStore last_spans;
  const std::int64_t budget_start = WallNowNs();
  double longest_cycle_s = 0.0;
  for (std::size_t cycle = 0;; ++cycle) {
    const double elapsed = static_cast<double>(WallNowNs() - budget_start) * 1e-9;
    if (cycle >= kMinRounds && elapsed + longest_cycle_s > args.seconds) break;
    const std::int64_t cycle_start = WallNowNs();
    for (std::size_t m = 0; m < modes.size(); ++m) {
      SpanStore spans;
      if (modes[m].traced) SetActiveSpans(&spans);
      RoundResult r = workload->run(args.seed, modes[m].telemetry);
      SetActiveSpans(nullptr);
      if (modes[m].traced) {
        const std::vector<double> self = spans.SelfNsByLayer();
        for (std::size_t l = 0; l < kNumLayers; ++l) self_ns[l].push_back(self[l]);
        last_spans = std::move(spans);
      }
      for (const std::string& f : r.check_failures) {
        failures.push_back(std::string(modes[m].label) + ": " + f);
      }
      std::printf("round %zu %-13s setup_s %.4f timed_s %.4f ops_per_s %.1f "
                  "host_speed %.3f\n",
                  cycle, modes[m].label, r.setup_s, r.timed_s, OpsPerSecond(r),
                  1.0 / HostSpeedFactor());
      by_mode[m].push_back(std::move(r));
    }
    longest_cycle_s = std::max(
        longest_cycle_s, static_cast<double>(WallNowNs() - cycle_start) * 1e-9);
  }

  // Determinism: every round at the seed reproduces the first one of its
  // mode (witness and exact counters), telemetry does not change sim-time
  // outcomes, and the warm-up seed yields a different witness.
  const RoundResult& reference = by_mode.front().front();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (const RoundResult& r : by_mode[m]) {
      if (r.witness != reference.witness) {
        failures.push_back(std::string(modes[m].label) +
                           ": witness differs between rounds at one seed");
      }
      if (!(r.counters == by_mode[m].front().counters)) {
        failures.push_back(std::string(modes[m].label) +
                           ": work counters differ between rounds at one seed");
      }
    }
  }
  if (warmup.witness == reference.witness) {
    failures.push_back("witness does not change with the seed");
  }

  std::printf("rounds=%zu witness=%016llx warmup_witness=%016llx\n",
              by_mode.front().size(),
              static_cast<unsigned long long>(reference.witness),
              static_cast<unsigned long long>(warmup.witness));
  std::uint64_t attempted = 0;
  for (const RoundResult& r : by_mode.front()) attempted += r.attempted;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(by_mode.front(), PeakRssMb(), failures);
    std::printf("end-to-end metrics (median over %zu rounds):\n",
                by_mode.front().size());
  } else {
    TraceSummary summary;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      summary.self_ms.push_back(Median(self_ns[l]) * 1e-6);
    }
    const auto median_ops = [](const std::vector<RoundResult>& rounds) {
      std::vector<double> ops;
      for (const RoundResult& r : rounds) ops.push_back(OpsPerSecond(r));
      return Median(ops);
    };
    summary.untraced_ops_per_s = median_ops(by_mode[0]);
    summary.traced_ops_per_s = median_ops(by_mode[1]);
    if (modes.size() > 2) {
      summary.telemetry_on_ops_per_s = summary.untraced_ops_per_s;
      summary.telemetry_off_ops_per_s = median_ops(by_mode[2]);
    }
    metrics = PerLayerMetrics(by_mode[1], summary);
    std::printf("self time per layer (median traced round, ms):\n");
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      std::printf("  %-10s %12.3f\n",
                  std::string(LayerName(static_cast<Layer>(l))).c_str(),
                  summary.self_ms[l]);
    }
    std::printf("tracing overhead: ops_per_s untraced %.1f, traced %.1f "
                "(base: untraced)\n",
                summary.untraced_ops_per_s, summary.traced_ops_per_s);
    if (modes.size() > 2) {
      std::printf("telemetry overhead: ops_per_s telemetry on %.1f, off %.1f "
                  "(base: off)\n",
                  summary.telemetry_on_ops_per_s,
                  summary.telemetry_off_ops_per_s);
    }
    if (!args.trace_out.empty()) {
      if (std::FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
        const std::string json = last_spans.ToChromeTrace();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("spans: %zu written to %s (%llu dropped)\n",
                    last_spans.spans().size(), args.trace_out.c_str(),
                    static_cast<unsigned long long>(last_spans.dropped()));
      } else {
        failures.push_back("cannot write " + args.trace_out);
      }
    }
    std::printf("per-layer metrics (traced rounds):\n");
  }
  for (const Metric& m : metrics) PrintMetric(m);
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", ResultJson(failures.empty(), attempted, failures.size(),
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

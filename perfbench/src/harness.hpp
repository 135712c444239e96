// Measurement harness shared by the perfbench workloads: the host clock, the
// percentile rule, the benchmark-owned span store for the traced run, exact
// allocation counters, and the per-round result every workload fills in.
//
// Everything here observes the system from outside: workloads time calls into
// the public API of each src/ module and read its public counters. Nothing in
// src/ knows it is being measured.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Calibrated host clock in nanoseconds; every host-time figure derives
/// from it. On shared hosts the speed of allocation-heavy code drifts by tens
/// of percent over seconds (neighbours loading the memory system), and the
/// drift shows in CPU time too. The clock therefore runs at nominal speed: it
/// advances by steady-clock time scaled by kNominalKernelNs over the current
/// duration of a fixed calibration kernel, re-measured every 10 ms. Kernel
/// time (a few percent of the host's) is excluded from the clock. A change
/// to the code under test moves these figures; a drift in host speed largely
/// does not.
std::int64_t HostNowNs();

/// Nominal duration of the calibration kernel, a round figure near its
/// fastest median on a 4-vCPU 2.0 GHz Xeon VM. It only scales host figures.
inline constexpr std::int64_t kNominalKernelNs = 150'000;

/// Calibrated ns per steady-clock ns at the last probe (1 = nominal speed).
double HostSpeedFactor();

/// Keeps the calibration kernel's result observable.
extern std::uint64_t g_calibration_sink;

/// Seconds elapsed on the host clock since `start_ns`.
double HostSecondsSince(std::int64_t start_ns);

/// Uncalibrated steady-clock nanoseconds, for the run's time budget only.
std::int64_t WallNowNs();

// --- Percentiles --------------------------------------------------------------

/// A percentile together with the sample count it rests on.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`. The rank is
/// ceil(q * n); the result is refused (nullopt) unless at least
/// `min_beyond` samples lie beyond that rank, so a p99 needs n >= 1000 at
/// the default of ten. Sorts `samples` in place.
std::optional<Percentile> NearestRank(std::vector<double>& samples, double q,
                                      std::size_t min_beyond = 10);

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty. Used to fold per-round host figures into one reported value.
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0. Every ratio the benchmark reports goes
/// through here so its base is explicit at the call site.
double Ratio(double num, double den);

// --- Layers and the traced run -----------------------------------------------

/// The src/ module a span is attributed to. `util` also covers the
/// benchmark's own bookkeeping (witness hashing, percentile folds).
enum class Layer : std::uint8_t {
  kSim,
  kNet,
  kKb,
  kSched,
  kContinuum,
  kMirto,
  kDpe,
  kTosca,
  kUsecases,
  kTelemetry,
  kUtil,
};
inline constexpr std::size_t kNumLayers = 11;
std::string_view LayerName(Layer layer);

/// One recorded call into a layer.
struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kUtil;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the store, -1 for a root span
};

/// In-memory span store of the traced run. Spans nest strictly (they wrap
/// synchronous calls), so the parent is the innermost open span. Bounded:
/// past `capacity` spans are counted as dropped, never stored.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity = 1u << 21) : capacity_(capacity) {}

  /// Opens a span; returns its index, or -1 when the store is full.
  std::int32_t Open(const char* name, Layer layer);
  void Close(std::int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Self time per layer in nanoseconds: each span's duration minus the
  /// part of it covered by its direct children.
  [[nodiscard]] std::vector<double> SelfNsByLayer() const;

  /// Chrome trace_event JSON of every stored span (host microseconds).
  [[nodiscard]] std::string ToChromeTrace() const;

 private:
  std::size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t dropped_ = 0;
};

/// The active span store, or null outside traced rounds.
SpanStore* ActiveSpans();
void SetActiveSpans(SpanStore* store);

/// RAII span around one call into a layer; a no-op when no store is active.
class Span {
 public:
  Span(const char* name, Layer layer) {
    if (SpanStore* store = ActiveSpans()) {
      store_ = store;
      index_ = store->Open(name, layer);
    }
  }
  ~Span() {
    if (store_ != nullptr) store_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStore* store_ = nullptr;
  std::int32_t index_ = -1;
};

// --- Heap counters -------------------------------------------------------------

/// Running totals of operator new calls and bytes requested in this process
/// (counted by the replacement operators in alloc_hook.cpp).
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCounts ReadAllocCounts();

/// Peak resident set (VmHWM) of this process in MB; 0 if unavailable.
double PeakRssMb();

// --- Per-round results --------------------------------------------------------

/// Host time of individual calls into one layer, in microseconds.
using HostSamples = std::vector<double>;

/// Exact work counters of one round: they repeat exactly at one seed, so two
/// rounds at the same seed must agree on every field.
struct WorkCounters {
  std::uint64_t events = 0;        // sim::Engine::executed_events
  std::uint64_t messages = 0;      // net::Network::messages_delivered
  std::uint64_t bytes = 0;         // net::Network::bytes_sent
  std::uint64_t dropped = 0;       // net::Network::messages_dropped
  std::uint64_t net_retries = 0;   // net::Network::retries
  std::uint64_t kb_commits = 0;    // max RaftNode::commit_index
  std::uint64_t kb_elections = 0;  // max RaftNode::current_term
  std::uint64_t kb_client_retries = 0;
  std::uint64_t kb_log_entries = 0;  // max RaftNode::log_size
  std::uint64_t kb_watch_events = 0;
  std::uint64_t bind_failures = 0;
  std::uint64_t pending_pods = 0;
  std::uint64_t mape_iterations = 0;
  std::uint64_t nodes_observed = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t slo_publishes = 0;
  std::uint64_t telemetry_spans = 0;
  std::uint64_t alloc_count = 0;   // operator new calls in the timed phase
  std::uint64_t alloc_bytes = 0;

  friend bool operator==(const WorkCounters&, const WorkCounters&) = default;
};

/// Everything one round of a workload produces.
struct RoundResult {
  // Outcomes (sim-deterministic).
  std::uint64_t attempted = 0;  // ops issued
  std::uint64_t completed = 0;  // ops that succeeded
  std::uint64_t failed = 0;     // ops the system failed or refused
  std::uint64_t late = 0;       // completed past the workload's deadline
  std::vector<double> sim_latency_ms;  // per completed op that has one
  double energy_mj = 0.0;              // compute energy of completed ops
  std::vector<double> failover_gaps_ms;
  std::uint64_t witness = 0;  // FNV-1a over the round's sim-time outcomes
  WorkCounters counters;

  // Host figures.
  double setup_s = 0.0;   // world build + initial load, before timing
  double timed_s = 0.0;   // host seconds of the timed phase
  double sim_run_s = 0.0;  // host seconds inside Engine::RunUntil
  HostSamples op_us;       // host latency of each op
  HostSamples mape_us;
  HostSamples bind_us;
  HostSamples delete_us;
  HostSamples reconcile_us;
  HostSamples churn_op_us;
  HostSamples deploy_us;
  HostSamples design_us;

  // Correctness: one line per failed check.
  std::vector<std::string> check_failures;

  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
};

/// Times one call in microseconds and appends it to `out`.
template <typename Fn>
auto TimeUs(HostSamples& out, Fn&& fn) {
  const std::int64_t t0 = HostNowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    out.push_back(static_cast<double>(HostNowNs() - t0) * 1e-3);
  } else {
    auto result = fn();
    out.push_back(static_cast<double>(HostNowNs() - t0) * 1e-3);
    return result;
  }
}

}  // namespace perfbench

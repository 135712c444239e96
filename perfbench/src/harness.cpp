#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <map>
#include <string>

namespace perfbench {

namespace {

std::int64_t RawNowNs() {
  // LINT: allow(determinism, the benchmark measures host time; sim state never reads it)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

// The calibration kernel: a fixed batch of ordered-map inserts keyed by
// short strings, the allocation- and pointer-heavy shape of control-plane
// code, so it slows down under the same memory-system contention. Its nodes
// come from malloc directly, keeping the operator-new counters exact.
template <typename T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <typename U>
  explicit MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(std::size_t n) {
    void* p = std::malloc(n * sizeof(T));
    if (p == nullptr) std::abort();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  friend bool operator==(const MallocAllocator&, const MallocAllocator&) {
    return true;
  }
};
using KernelString =
    std::basic_string<char, std::char_traits<char>, MallocAllocator<char>>;
using KernelMap =
    std::map<KernelString, std::uint64_t, std::less<>,
             MallocAllocator<std::pair<const KernelString, std::uint64_t>>>;
constexpr int kKernelInserts = 400;

std::uint64_t CalibrationKernel() {
  KernelMap map;
  char key[40];
  for (int i = 0; i < kKernelInserts; ++i) {
    std::snprintf(key, sizeof(key), "/registry/nodes/n%d/record",
                  (i * 7919) % 1000);
    map[KernelString(key)] += static_cast<std::uint64_t>(i);
  }
  std::uint64_t h = map.size();
  for (const auto& [k, v] : map) h = (h ^ v ^ k.size()) * 1099511628211ULL;
  return h;
}

/// The calibrated host clock. Raw steady-clock time is scaled by the host's
/// speed relative to nominal, re-estimated every kProbeEveryNs from the
/// median of the last kProbeWindow kernel timings. Kernel time itself is
/// excluded, so the probes cost the measured code nothing.
constexpr std::int64_t kProbeEveryNs = 10'000'000;
constexpr std::size_t kProbeWindow = 5;
struct CalibratedClock {
  bool started = false;
  std::int64_t raw_last = 0;
  double calibrated_ns = 0.0;
  double factor = 1.0;  // calibrated ns per raw ns
  std::int64_t next_probe = 0;
  std::int64_t window[kProbeWindow] = {};
  std::size_t probes = 0;
};
CalibratedClock g_clock;

void Probe() {
  const std::int64_t k0 = RawNowNs();
  g_calibration_sink ^= CalibrationKernel();
  const std::int64_t k1 = RawNowNs();
  g_clock.window[g_clock.probes++ % kProbeWindow] = k1 - k0;
  const std::size_t n = std::min(g_clock.probes, kProbeWindow);
  std::int64_t sorted[kProbeWindow];
  std::copy(g_clock.window, g_clock.window + n, sorted);
  std::sort(sorted, sorted + n);
  g_clock.factor = static_cast<double>(kNominalKernelNs) /
                   static_cast<double>(std::max<std::int64_t>(1, sorted[n / 2]));
  g_clock.raw_last = k1;
  g_clock.next_probe = k1 + kProbeEveryNs;
}

}  // namespace

std::uint64_t g_calibration_sink = 0;

std::int64_t HostNowNs() {
  const std::int64_t raw = RawNowNs();
  if (!g_clock.started) {
    g_clock.started = true;
    g_clock.raw_last = raw;
    g_clock.next_probe = raw;
  }
  g_clock.calibrated_ns +=
      static_cast<double>(raw - g_clock.raw_last) * g_clock.factor;
  g_clock.raw_last = raw;
  if (raw >= g_clock.next_probe) Probe();
  return static_cast<std::int64_t>(g_clock.calibrated_ns);
}

double HostSpeedFactor() { return g_clock.factor; }

std::int64_t WallNowNs() { return RawNowNs(); }

double HostSecondsSince(std::int64_t start_ns) {
  return static_cast<double>(HostNowNs() - start_ns) * 1e-9;
}

std::optional<Percentile> NearestRank(std::vector<double>& samples, double q,
                                      std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0) || q > 1.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kKb: return "kb";
    case Layer::kSched: return "sched";
    case Layer::kContinuum: return "continuum";
    case Layer::kMirto: return "mirto";
    case Layer::kDpe: return "dpe";
    case Layer::kTosca: return "tosca";
    case Layer::kUsecases: return "usecases";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kUtil: return "util";
  }
  return "?";
}

std::int32_t SpanStore::Open(const char* name, Layer layer) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  SpanRecord record;
  record.name = name;
  record.layer = layer;
  record.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(record);
  open_.push_back(index);
  spans_.back().start_ns = HostNowNs();
  return index;
}

void SpanStore::Close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = HostNowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanStore::SelfNsByLayer() const {
  std::vector<double> self(kNumLayers, 0.0);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double own = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    self[static_cast<std::size_t>(s.layer)] += std::max(0.0, own);
  }
  return self;
}

std::string SpanStore::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  std::string(LayerName(s.layer)).c_str(),
                  static_cast<double>(s.start_ns - base) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

namespace {
SpanStore* g_active_spans = nullptr;
}  // namespace

SpanStore* ActiveSpans() { return g_active_spans; }
void SetActiveSpans(SpanStore* store) { g_active_spans = store; }

double PeakRssMb() {
  // ru_maxrss is the kernel's resident high-water mark (VmHWM), in KiB.
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

// Shared plumbing of the benchmark drivers: run options, input generator,
// latency histogram, the report every workload fills, process probes and
// the span tracer of the traced binary.
//
// Everything here is the benchmark's own instrument. The library is reached
// only through its public headers, from the workload files.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

#ifdef PERFBENCH_TRACE
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;         // measured window
  std::string work_dir;        // scratch directory for on-disk state
  std::string trace_out;       // span dump of the traced binary ("" = none)
};

/// Untimed full-load run before the measured window: a window that starts
/// cold reads 2-3x high on this library's contended and durable paths.
inline constexpr double kWarmupSeconds = 2;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// splitmix64: every input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Printable text of a length in [min_len, max_len].
  std::string text(std::size_t min_len, std::size_t max_len) {
    std::string s(min_len + below(max_len - min_len + 1), ' ');
    for (char& c : s) c = static_cast<char>('a' + below(26));
    return s;
  }

 private:
  std::uint64_t s_;
};

/// Seed of one input stream of a run (a client, an episode, a round).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x100000001b3ull + stream).next();
}

/// Log-linear latency histogram: 64 linear sub-buckets per power of two
/// (1.6 % resolution), percentiles interpolated inside the bucket.
class LatencyHistogram {
 public:
  void record(std::int64_t ns) {
    const std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    ++buckets_[index(v)];
    ++count_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const { return count_; }

  /// The q-quantile in microseconds (0 when empty).
  double percentile_us(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const double n = static_cast<double>(buckets_[i]);
      if (seen + n >= rank) {
        const double lo = static_cast<double>(lower(i));
        const double hi = static_cast<double>(lower(i + 1));
        return (lo + (hi - lo) * (rank - seen) / n) * 1e-3;
      }
      seen += n;
    }
    return static_cast<double>(lower(kBuckets)) * 1e-3;
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub * 40;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - kSubBits;
    const std::size_t i = (static_cast<std::size_t>(shift) + 1) * kSub +
                          static_cast<std::size_t>((v >> shift) - kSub);
    return std::min(i, kBuckets - 1);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return (kSub + i % kSub) << shift;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// Median of `v`, the mean of the middle two when even (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// What one run hands back: checks, counts, metrics and context lines.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;

  /// Records a check; repeated names (one per episode or round) fold
  /// into one entry that passes only if every instance passed.
  void check(const std::string& name, bool ok) {
    for (auto& c : checks) {
      if (c.first == name) {
        c.second = c.second && ok;
        return;
      }
    }
    checks.emplace_back(name, ok);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) {
    info.emplace_back(std::move(name), value);
  }
  bool correct() const {
    return !checks.empty() &&
           std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

/// Builds the service `n` times, appending each build's seconds to
/// `seconds`; `out` keeps the last build. Workloads time builds at the
/// start and again while no call is running (throwaway builds), so the
/// median set-up time spans the whole run, not only the moment it started.
template <typename Ptr, typename Build>
void timed_builds(int n, Ptr& out, Build&& build,
                  std::vector<double>& seconds) {
  for (int i = 0; i < n; ++i) {
    out.reset();
    const std::int64_t t0 = now_ns();
    out = build();
    seconds.push_back(seconds_between(t0, now_ns()));
  }
}

/// Moves the calling thread over the CPUs it may run on, one CPU per
/// next(), starting `first` CPUs along. Two threads that rotate from
/// different starts never share a CPU (given two), so where the scheduler
/// would put them stops mattering, and rotating spreads their work over
/// every CPU. Restores the original CPU set when destroyed.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t first = 0);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// The end-to-end metrics every workload reports, over its whole measured
/// window: `setup_s` is the workload's set-up figure (a median of repeated
/// builds), ops_per_s is `calls` completed over `seconds` of calling, the
/// percentiles come from `all` (every call) and `writes` (the workload's
/// writes), and completed_ratio from r.attempted and r.failed.
void report_end_to_end(Report& r, double setup_s, std::uint64_t calls,
                       double seconds, const LatencyHistogram& all,
                       const LatencyHistogram& writes);

// --- process probes (common.cpp) -------------------------------------------

struct IoCounters {
  std::uint64_t syscw = 0;  // write-class system calls
  std::uint64_t wchar = 0;  // bytes handed to them
};
IoCounters read_proc_io();
/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();
/// Live heap bytes as the allocator sees them (mallinfo2).
std::size_t heap_bytes();
/// Global operator new calls made by the calling thread (traced binary;
/// always 0 in the end-to-end binary).
std::uint64_t thread_allocs();

// --- tracing ---------------------------------------------------------------

/// Span names, one per boundary the benchmark crosses. The part before the
/// dot is the layer (a src/ module; "bench" is the client loop itself).
enum class SpanName : std::uint8_t {
  kCall,         // bench.call        one synchronous client call
  kContext,      // runtime.context   InvocationContext: id, clock, notes
  kAdmit,        // core.admit        AspectModerator::preactivation
  kBody,         // apps.body         the component body
  kComplete,     // core.complete     AspectModerator::postactivation
  kPark,         // concurrency.park  AsyncCall::start on a blocking guard
  kProgress,     // concurrency.progress  one persona progress() drain
  kReopen,       // storage.reopen    DurableTicketApp::open: replay
  kCount
};

const char* span_label(SpanName n);
/// Layer index of a span: 0 bench, 1 runtime, 2 core, 3 apps,
/// 4 concurrency, 5 storage.
std::size_t span_layer(SpanName n);
inline constexpr std::array<const char*, 6> kLayers = {
    "bench", "runtime", "core", "apps", "concurrency", "storage"};

/// Per-thread span recorder. Spans nest by a stack; when a root span
/// closes, its tree is folded into per-name aggregates (count, total, self
/// time, duration histogram). The first kRetain spans of the window are
/// also kept in memory for the dump written when the run ends; later trees
/// are dropped after folding, which bounds memory on long windows. In the
/// end-to-end binary every member is a no-op.
class Tracer {
 public:
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t child_ns = 0;
    std::uint64_t call_id = 0;
    std::int32_t parent = -1;
    SpanName name = SpanName::kCall;
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    LatencyHistogram dur;
  };

  /// Span buffer size: the retained spans plus the largest open tree.
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;
  /// Spans kept for the dump; later trees are folded and dropped.
  static constexpr std::size_t kRetain = std::size_t{1} << 17;

  /// Records only while active (the measured window). The span buffer is
  /// reserved on first activation, so recording never allocates.
  void set_active(bool on) {
    active_ = kTraced && on;
    if (active_ && spans_.capacity() < kCapacity) {
      spans_.reserve(kCapacity);
      stack_.reserve(64);
    }
  }
  bool active() const { return active_; }

  /// Opens a span; returns its handle for close(). -1 when inactive.
  std::int32_t open(SpanName name, std::uint64_t call_id) {
    if constexpr (!kTraced) return -1;
    if (!active_ || spans_.size() == kCapacity) return -1;
    Span s;
    s.name = name;
    s.call_id = call_id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t h) {
    if constexpr (!kTraced) return;
    if (h < 0) return;
    Span& s = spans_[static_cast<std::size_t>(h)];
    s.end = now_ns();
    stack_.pop_back();
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end - s.start;
      return;
    }
    fold(static_cast<std::size_t>(h));
  }

  const Aggregate& aggregate(SpanName n) const {
    return agg_[static_cast<std::size_t>(n)];
  }
  const std::vector<Span>& retained() const { return spans_; }

  /// Adds another thread's aggregates (not its retained spans).
  void merge(const Tracer& o) {
    for (std::size_t i = 0; i < agg_.size(); ++i) {
      agg_[i].count += o.agg_[i].count;
      agg_[i].total_ns += o.agg_[i].total_ns;
      agg_[i].self_ns += o.agg_[i].self_ns;
      agg_[i].dur.merge(o.agg_[i].dur);
    }
  }

 private:
  void fold(std::size_t root) {
    for (std::size_t i = root; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Aggregate& a = agg_[static_cast<std::size_t>(s.name)];
      ++a.count;
      a.total_ns += s.end - s.start;
      a.self_ns += s.end - s.start - s.child_ns;
      a.dur.record(s.end - s.start);
    }
    if (spans_.size() > kRetain) spans_.resize(root);
  }

  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::array<Aggregate, static_cast<std::size_t>(SpanName::kCount)> agg_{};
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, SpanName n, std::uint64_t call_id)
      : t_(t), h_(t.open(n, call_id)) {}
  ~Scope() { t_.close(h_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t h_;
};

/// Writes the retained spans of `threads` as CSV, one row per span:
/// thread,name,start_ns,end_ns,parent,call_id (start/end relative to
/// `t0`; parent is the row index within the thread, -1 for a root).
bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& threads, std::int64_t t0);

/// Per-layer metrics every workload reports from its traced run: span
/// percentiles, self time per layer per call, allocations per call.
/// Workload-specific counters are added by the workload itself.
void report_layers(Report& r, const Tracer& merged, std::uint64_t calls,
                   std::uint64_t allocs, const LatencyHistogram& wait);

// --- workloads -------------------------------------------------------------

Report run_rw_read_mostly(const Options& o);
Report run_ticket_durable(const Options& o);
Report run_ticket_durable_async(const Options& o);

}  // namespace perfbench

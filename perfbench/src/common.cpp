// Process probes, span labels, the span dump and the per-layer metrics
// shared by every workload's traced run.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

IoCounters read_proc_io() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscw:") io.syscw = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

#ifndef PERFBENCH_TRACE
std::uint64_t thread_allocs() { return 0; }
#endif

namespace {

struct Label {
  const char* text;
  std::size_t layer;
};

constexpr std::array<Label, static_cast<std::size_t>(SpanName::kCount)>
    kLabels = {{{"bench.call", 0},
                {"runtime.context", 1},
                {"core.admit", 2},
                {"apps.body", 3},
                {"core.complete", 2},
                {"concurrency.park", 4},
                {"concurrency.progress", 4},
                {"storage.reopen", 5}}};

}  // namespace

const char* span_label(SpanName n) {
  return kLabels[static_cast<std::size_t>(n)].text;
}
std::size_t span_layer(SpanName n) {
  return kLabels[static_cast<std::size_t>(n)].layer;
}

bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& threads, std::int64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread,name,start_ns,end_ns,parent,call_id\n", f);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (const Tracer::Span& s : threads[t]->retained()) {
      std::fprintf(f, "%zu,%s,%lld,%lld,%d,%llu\n", t, span_label(s.name),
                   static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0), s.parent,
                   static_cast<unsigned long long>(s.call_id));
    }
  }
  return std::fclose(f) == 0;
}

namespace {
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}
}  // namespace

CpuRotation::CpuRotation(std::size_t first) : turn_(first) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(sched_getcpu());
}

CpuRotation::~CpuRotation() { pin_to(cpus_); }

void CpuRotation::next() { pin_to({cpus_[turn_++ % cpus_.size()]}); }

void report_end_to_end(Report& r, double setup_s, std::uint64_t calls,
                       double seconds, const LatencyHistogram& all,
                       const LatencyHistogram& writes) {
  r.metric("setup_s", setup_s, "s");
  r.metric("ops_per_s", ratio(static_cast<double>(calls), seconds), "1/s");
  r.metric("p50_us", all.percentile_us(0.50), "us");
  r.metric("p99_us", all.percentile_us(0.99), "us");
  r.metric("write_p99_us", writes.percentile_us(0.99), "us");
  r.metric("completed_ratio",
           ratio(static_cast<double>(r.attempted - r.failed),
                 static_cast<double>(r.attempted)),
           "ratio");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.note("latency_samples", static_cast<double>(all.count()));
  r.note("write_latency_samples", static_cast<double>(writes.count()));
}

void report_layers(Report& r, const Tracer& merged, std::uint64_t calls,
                   std::uint64_t allocs, const LatencyHistogram& wait) {
  auto hist = [&](SpanName n) -> const LatencyHistogram& {
    return merged.aggregate(n).dur;
  };
  r.metric("core.admit_us.p50", hist(SpanName::kAdmit).percentile_us(0.50),
           "us");
  r.metric("core.admit_us.p99", hist(SpanName::kAdmit).percentile_us(0.99),
           "us");
  r.metric("core.complete_us.p50",
           hist(SpanName::kComplete).percentile_us(0.50), "us");
  r.metric("core.complete_us.p99",
           hist(SpanName::kComplete).percentile_us(0.99), "us");
  r.metric("core.wait_us.p99", wait.percentile_us(0.99), "us");
  r.metric("apps.body_us.p50", hist(SpanName::kBody).percentile_us(0.50),
           "us");
  if (merged.aggregate(SpanName::kPark).count > 0) {
    r.metric("concurrency.park_us.p50",
             hist(SpanName::kPark).percentile_us(0.50), "us");
  }

  // Self time per layer over the live call path (the reopen span is
  // reported by the durable workload as replay time instead).
  std::array<double, kLayers.size()> self_ns{};
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
       ++i) {
    const auto n = static_cast<SpanName>(i);
    if (n == SpanName::kReopen) continue;
    self_ns[span_layer(n)] += static_cast<double>(merged.aggregate(n).self_ns);
  }
  const double n_calls = static_cast<double>(calls);
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    if (std::strcmp(kLayers[l], "storage") == 0) continue;
    r.metric(std::string(kLayers[l]) + ".self_us_per_call",
             ratio(self_ns[l] * 1e-3, n_calls), "us");
  }
  r.metric("runtime.allocs_per_call",
           ratio(static_cast<double>(allocs), n_calls), "count");
}

}  // namespace perfbench

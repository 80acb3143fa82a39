// Benchmark driver entry point.
//
//   perfbench_run   --workload W --seed N --seconds S [--work-dir DIR]
//   perfbench_trace ... [--trace-out FILE]
//
// Runs one workload and prints one JSON line: host facts, the output
// checks, context notes, attempted/failed counts and the metrics. The
// end-to-end binary reports the end-to-end metrics; the traced binary
// reports the per-layer metrics plus its own throughput as
// trace.ops_per_s. perfbench/run.py wraps this into the benchmark's
// result line.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(usable);
  out += ", \"online_cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__);
  out += "}";
  return out;
}

// Aggregate CPU ticks of the host as this machine sees them: all of them,
// and the ones the hypervisor gave to someone else (steal).
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_run|perfbench_trace --workload "
               "NAME --seed N --seconds S [--work-dir DIR] "
               "[--trace-out FILE]\n",
               msg);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    const char* v = value.c_str();
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// The traced binary reports per-layer metrics only; its own throughput is
// kept, renamed, so the tracing overhead can be derived from it.
void keep_layer_metrics(Report& r) {
  std::vector<Report::Metric> kept;
  for (auto& m : r.metrics) {
    if (m.name == "ops_per_s") {
      kept.push_back({"trace.ops_per_s", m.value, m.unit});
    } else if (m.name.find('.') != std::string::npos) {
      kept.push_back(std::move(m));
    }
  }
  r.metrics = std::move(kept);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options o = parse(argc, argv);
  Report r;
  const CpuTicks ticks0 = cpu_ticks();
  if (o.workload == "rw_read_mostly") {
    r = perfbench::run_rw_read_mostly(o);
  } else if (o.workload == "ticket_durable") {
    if (o.work_dir.empty()) usage("ticket_durable needs --work-dir");
    r = perfbench::run_ticket_durable(o);
  } else if (o.workload == "ticket_durable_async") {
    if (o.work_dir.empty()) usage("ticket_durable_async needs --work-dir");
    r = perfbench::run_ticket_durable_async(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  const CpuTicks ticks1 = cpu_ticks();
  // Context for reading the figures: the share of CPU time the host took
  // away during the run (steal slows the contended workloads most).
  r.note("host_steal_share", perfbench::ratio(ticks1.steal - ticks0.steal,
                                              ticks1.total - ticks0.total));
  if (perfbench::kTraced) keep_layer_metrics(r);

  std::string out = "{\"host\": " + host_json();
  out += ", \"traced\": ";
  out += perfbench::kTraced ? "true" : "false";
  out += ", \"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i) out += ", ";
    out += json_string(r.checks[i].first) + ": " +
           (r.checks[i].second ? "true" : "false");
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i) out += ", ";
    out += json_string(r.info[i].first) + ": " + json_number(r.info[i].second);
  }
  out += "}, \"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(r.metrics[i].name) + ": {\"value\": " +
           json_number(r.metrics[i].value) +
           ", \"unit\": " + json_string(r.metrics[i].unit) + "}";
  }
  out += "}}";
  std::puts(out.c_str());
  return 0;
}

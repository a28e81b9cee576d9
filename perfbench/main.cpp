// perfbench — one workload per run, end-to-end metrics with tracing off,
// per-layer metrics and a trace-event file with tracing on.
//
// Usage:
//   perfbench --workload sweep|predict|serve --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 1 the spans go to FILE (default .bench_out/trace-<workload>-
// <seed>.json, relative to the working directory).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t context_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw) +
         static_cast<std::uint64_t>(usage.ru_nivcsw);
}

int worker_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

void set_end_to_end(Outcome& out, double setup_seconds,
                    std::vector<double> rates, std::vector<double> op_p50_ms,
                    double rss_mb) {
  out.end_to_end = {{"setup_s", setup_seconds, "s"},
                    {"ops_per_s", quantile(std::move(rates), 0.9), "1/s"},
                    {"op_p50_ms", quantile(std::move(op_p50_ms), 0.1), "ms"},
                    {"peak_rss_mb", rss_mb, "MB"}};
}

void Tracer::record(const char* name, const char* layer,
                    Clock::time_point start, Clock::time_point end,
                    std::string args) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_us = seconds_between(epoch_, start) * 1e6;
  span.dur_us = seconds_between(start, end) * 1e6;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span.args = std::move(args);
  std::lock_guard lock{mu_};
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard lock{mu_};
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lock{mu_};
  std::ofstream out{path};
  if (!out) return false;
  // Small dense thread ids keep the viewer's track list readable.
  std::vector<std::uint64_t> threads;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find(threads.begin(), threads.end(), s.thread);
    if (it == threads.end()) it = threads.insert(threads.end(), s.thread);
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.dur_us);
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (it - threads.begin()) + 1
        << ',' << times << ",\"args\":{" << s.args << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

/// The CPUs the process was started with; read before any change.
const cpu_set_t& starting_cpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) CPU_SET(cpu, &allowed);
    }
    return allowed;
  }();
  return cpus;
}

void set_cpus(const cpu_set_t& cpus) {
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

}  // namespace

void confine_to_one_cpu() {
  const cpu_set_t& allowed = starting_cpus();
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    set_cpus(one);
    return;
  }
}

void allow_all_cpus() { set_cpus(starting_cpus()); }

}  // namespace pb

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!args.selftest && args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print_result(const pb::Outcome& out, bool trace) {
  const std::vector<pb::Metric>& metrics =
      trace ? out.per_layer : out.end_to_end;
  std::string line = "{\"correct\": ";
  line += out.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = pb::Clock::now();
  const Args args = parse_args(argc, argv);
  pb::confine_to_one_cpu();
  if (args.selftest) return pb::run_selftest();

  pb::Tracer tracer{args.trace};
  pb::RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.tracer = &tracer;
  ctx.process_start = process_start;

  pb::Outcome out;
  try {
    if (args.workload == "sweep") {
      out = pb::run_sweep(ctx);
    } else if (args.workload == "predict") {
      out = pb::run_predict(ctx);
    } else if (args.workload == "serve") {
      out = pb::run_serve(ctx);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }

  if (args.trace) {
    const std::string path =
        !args.trace_out.empty()
            ? args.trace_out
            : ".bench_out/trace-" + args.workload + "-" +
                  std::to_string(args.seed) + ".json";
    const std::filesystem::path parent =
        std::filesystem::path{path}.parent_path();
    std::error_code ec;
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    if (ec || !tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
      return 3;
    }
    std::printf("trace: %zu spans in %s\n", tracer.size(), path.c_str());
  }
  for (const std::string& error : out.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  print_result(out, args.trace);
  return 0;
}

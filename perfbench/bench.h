// Shared pieces of the perfbench binary: timing, order statistics, the
// metric list a run prints, and the span recorder behind --trace 1.
//
// Every timing here is host time from std::chrono::steady_clock, taken in
// the benchmark's own code around public calls into the project's
// libraries; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mpibench/table.h"

namespace pb {

class ServeSession;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Voluntary plus involuntary context switches of this process so far.
[[nodiscard]] std::uint64_t context_switches();
/// Confines the calling thread, and every thread it starts later, to the
/// highest CPU of the process's starting affinity mask. On a shared virtual
/// host a hand-off between threads on different vCPUs waits until the
/// hypervisor runs the target vCPU; in unconfined runs that made one sweep
/// take from 1 s to 93 s. On one CPU a hand-off is a local context switch
/// and the host's interference shows only as lost CPU time.
void confine_to_one_cpu();
/// Gives the calling thread back every CPU of the starting mask, for a
/// metric about threads that run at once.
void allow_all_cpus();
/// Host threads the workloads may use: the core count, capped at 4.
[[nodiscard]] int worker_threads();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `errors` holds the first few failed checks; any
/// entry makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 16) errors.push_back(what);
  }
  void check(const std::optional<std::string>& error) {
    if (error) check(false, *error);
  }
};

/// Sets the end-to-end metrics every workload reports, from one entry per
/// timed round: its operations per second and the median host time of its
/// operations. Each is taken at the round only one in ten rounds beat. The
/// shared host alternates between a fast phase and one about 30 % slower,
/// each lasting seconds, and the share of rounds in either changes from run
/// to run; a median over rounds lands in whichever phase holds half of
/// them, while the fastest tenth of rounds falls in the fast phase in
/// nearly every run.
void set_end_to_end(Outcome& out, double setup_seconds,
                    std::vector<double> rates, std::vector<double> op_p50_ms,
                    double rss_mb);

/// In-memory span recorder written out as Chrome trace-event JSON (the
/// format Perfetto and chrome://tracing open). Disabled recorders cost one
/// branch per span. Spans may be recorded from several threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a finished span. Spans on one thread nest by time in the
  /// viewer, so a span recorded after its children still encloses them.
  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end, std::string args = {});

  /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O error.
  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t thread = 0;
    std::string args;
  };

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Everything a workload needs from the command line.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;
  Clock::time_point process_start{};
};

/// State a workload hands to the per-layer probes after its timed loop, so
/// probes that need a table or a live server use the workload's own.
struct ProbeInputs {
  const mpibench::DistributionTable* table = nullptr;
  /// The workload's live server, when it has one.
  ServeSession* session = nullptr;
  /// Layer metrics the workload measured itself; probes skip these names.
  std::vector<Metric> measured;
};

Outcome run_sweep(const RunContext& ctx);
Outcome run_predict(const RunContext& ctx);
Outcome run_serve(const RunContext& ctx);

/// Appends every per-layer metric not already in `inputs.measured`.
void run_probes(const RunContext& ctx, const ProbeInputs& inputs,
                Outcome& out);

/// Corrupts real outputs and shows that each output check rejects them.
/// Returns the process exit code.
int run_selftest();

}  // namespace pb

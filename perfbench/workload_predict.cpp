// Workload `predict`: PEVPM predictions of the Figure 5 Jacobi model and
// its communication-bound variant from a table that set-up measures, for P
// from 2 to 256 in distribution mode (scoreboard contention) plus average
// and minimum modes. P beyond the measured grid is answered by the scaling
// model fitted from the same table.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/parse.h"
#include "core/predict.h"
#include "models.h"
#include "scaling/model.h"

namespace pb {
namespace {

constexpr int kTableRepetitions = 40;
constexpr int kReplications = 8;
/// Worker threads of the timed predictions. The process runs on one CPU
/// (main.cpp), where more workers only add hand-offs; the once-per-run
/// check repeats the set at nproc workers.
constexpr int kTimedThreads = 1;
const std::vector<int> kProcs{2, 4, 8, 16, 32, 64, 128, 256};
/// Largest contention level of the halo table (64 nodes x 2 / 2). Up to
/// this many processes the scoreboard never leaves the measured grid.
constexpr int kGridProcs = 64;
/// Largest P the packet-level run covers (64 nodes x 2).
constexpr int kActualProcs = 128;

struct Case {
  const char* model;  ///< "jacobi" or "commbound"
  pevpm::PredictionMode mode = pevpm::PredictionMode::kDistribution;
  int procs = 2;
};

struct Setup {
  mpibench::DistributionTable table;
  scaling::ScalingModel scaling;
  pevpm::Model jacobi;
  pevpm::Model commbound;
  std::vector<double> actual;  ///< per kProcs entry up to kActualProcs
};

const char* mode_name(pevpm::PredictionMode mode) {
  switch (mode) {
    case pevpm::PredictionMode::kDistribution: return "distribution";
    case pevpm::PredictionMode::kAverage: return "average";
    case pevpm::PredictionMode::kMinimum: return "minimum";
  }
  return "?";
}

std::vector<Case> prediction_set() {
  std::vector<Case> cases;
  for (const char* model : {"jacobi", "commbound"}) {
    for (const pevpm::PredictionMode mode :
         {pevpm::PredictionMode::kDistribution, pevpm::PredictionMode::kAverage,
          pevpm::PredictionMode::kMinimum}) {
      for (const int p : kProcs) cases.push_back({model, mode, p});
    }
  }
  return cases;
}

pevpm::PredictOptions options_for(const Setup& setup, const Case& c,
                                  int threads, bool extrapolate) {
  pevpm::PredictOptions options;
  options.replications = kReplications;
  options.seed = 321;
  options.threads = threads;
  options.sampler.mode = c.mode;
  if (c.mode != pevpm::PredictionMode::kDistribution) {
    // The single-point modes read one fixed level: the benchmark config
    // with the same process count.
    options.sampler.contention = pevpm::ContentionSource::kFixed;
    options.sampler.fixed_contention = std::max(1, c.procs / 2);
  }
  if (extrapolate) options.sampler.scaling = &setup.scaling;
  return options;
}

const pevpm::Model& model_of(const Setup& setup, const Case& c) {
  return std::string_view{c.model} == "jacobi" ? setup.jacobi
                                               : setup.commbound;
}

double serial_of(const Case& c) {
  return std::string_view{c.model} == "jacobi"
             ? models::kJacobiSerialSeconds
             : models::kCommBoundSerialSeconds;
}

std::string label(const Case& c) {
  return std::string{c.model} + " " + mode_name(c.mode) + " P=" +
         std::to_string(c.procs);
}

Setup make_setup(const RunContext& ctx) {
  Setup setup;
  setup.table =
      models::measure_halo_table(ctx.seed, kTableRepetitions, /*jobs=*/1);
  setup.scaling = scaling::fit_scaling_model(setup.table);
  setup.jacobi = pevpm::parse_annotated_source(
      models::jacobi_source(models::kJacobiSerialSeconds), "jacobi-fig5");
  setup.commbound = pevpm::parse_annotated_source(
      models::jacobi_source(models::kCommBoundSerialSeconds), "jacobi-comm");
  for (const int p : kProcs) {
    if (p > kActualProcs) break;
    const int nodes = p <= 64 ? p : p / 2;
    setup.actual.push_back(
        models::jacobi_actual_seconds(nodes, p / nodes, ctx.seed));
  }
  return setup;
}

/// Runs the whole prediction set once; one operation per prediction.
std::vector<pevpm::Prediction> run_set(const RunContext& ctx,
                                       const Setup& setup,
                                       const std::vector<Case>& cases,
                                       Outcome& out, double& seconds,
                                       std::vector<double>& op_ms) {
  std::vector<pevpm::Prediction> results(cases.size());
  Tracer& tracer = *ctx.tracer;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const auto t0 = Clock::now();
    ++out.attempted;
    try {
      results[i] = pevpm::predict(model_of(setup, c), c.procs, {}, setup.table,
                                  options_for(setup, c, kTimedThreads,
                                              /*extrapolate=*/true));
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, label(c) + " threw: " + e.what());
    }
    const auto t1 = Clock::now();
    op_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (tracer.enabled()) {
      tracer.record("core.predict", "core", t0, t1,
                    "\"model\":\"" + std::string{c.model} + "\",\"mode\":\"" +
                        mode_name(c.mode) +
                        "\",\"procs\":" + std::to_string(c.procs));
    }
  }
  const auto end = Clock::now();
  seconds = seconds_between(start, end);
  tracer.record("prediction_set", "core", start, end);
  return results;
}

void check_set(const Setup& setup, const std::vector<Case>& cases,
               const std::vector<pevpm::Prediction>& results, Outcome& out) {
  const std::size_t per_mode = kProcs.size();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const pevpm::Prediction& r = results[i];
    out.check(checks::no_deadlock(r, label(c)));
    out.check(checks::at_least_serial_share(
        r.seconds(), models::kIterations * serial_of(c), c.procs, label(c)));
    if (c.mode == pevpm::PredictionMode::kMinimum) {
      // The average-mode case at the same P sits one block earlier.
      out.check(checks::min_at_most_average(
          r.seconds(), results[i - per_mode].seconds(), label(c)));
    }
    const std::size_t p_index = i % per_mode;
    if (std::string_view{c.model} == "jacobi" &&
        c.mode == pevpm::PredictionMode::kDistribution &&
        p_index < setup.actual.size()) {
      out.check(checks::agrees_with_actual(r.seconds(),
                                           setup.actual[p_index], label(c)));
    }
  }
}

/// The two once-per-run differential checks: the distribution-mode cases
/// again on nproc worker threads, and the on-grid cases again without the
/// scaling model. Both must reproduce the timed results bit for bit.
void check_invariants(const Setup& setup, const std::vector<Case>& cases,
                      const std::vector<pevpm::Prediction>& results,
                      Outcome& out) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (c.mode != pevpm::PredictionMode::kDistribution) continue;
    const pevpm::Model& model = model_of(setup, c);
    ++out.attempted;
    const pevpm::Prediction parallel =
        pevpm::predict(model, c.procs, {}, setup.table,
                       options_for(setup, c, worker_threads(), true));
    out.check(checks::identical_prediction(
        results[i], parallel,
        label(c) + " at " + std::to_string(kTimedThreads) + " vs " +
            std::to_string(worker_threads()) + " threads"));
    if (c.procs > kGridProcs) continue;
    ++out.attempted;
    const pevpm::Prediction table_only =
        pevpm::predict(model, c.procs, {}, setup.table,
                       options_for(setup, c, kTimedThreads, false));
    out.check(checks::identical_prediction(
        results[i], table_only, label(c) + " with vs without extrapolation"));
  }
}

}  // namespace

Outcome run_predict(const RunContext& ctx) {
  Outcome out;
  const Setup setup = make_setup(ctx);
  out.check(checks::table_counts(setup.table, kTableRepetitions));
  const std::vector<Case> cases = prediction_set();
  const double setup_seconds = seconds_since(ctx.process_start);

  std::vector<double> sets;
  std::vector<double> rates;
  std::vector<double> op_p50_ms;
  std::vector<pevpm::Prediction> results;
  // Taken after the first set, like sweep's, so it does not depend on how
  // many sets the run's time allowed.
  double rss_mb = 0.0;
  const auto loop_start = Clock::now();
  do {
    double seconds = 0.0;
    std::vector<double> op_ms;
    results = run_set(ctx, setup, cases, out, seconds, op_ms);
    if (sets.empty()) rss_mb = peak_rss_mb();
    op_p50_ms.push_back(median(op_ms));
    sets.push_back(seconds);
    rates.push_back(static_cast<double>(cases.size()) / seconds);
    check_set(setup, cases, results, out);
  } while (seconds_since(loop_start) < ctx.seconds);
  check_invariants(setup, cases, results, out);
  std::printf("predict_s: %zu sets of %zu predictions, median %.4f s, "
              "fastest tenth %.4f s\n",
              sets.size(), cases.size(), median(sets), quantile(sets, 0.1));
  set_end_to_end(out, setup_seconds, rates, op_p50_ms, rss_mb);
  if (ctx.tracer->enabled()) {
    ProbeInputs inputs;
    inputs.table = &setup.table;
    run_probes(ctx, inputs, out);
  }
  return out;
}

}  // namespace pb

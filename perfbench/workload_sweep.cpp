// Workload `sweep`: the MPIBench MPI_Isend table sweep that `mpibench
// --table` runs, cell by cell through the public mpibench::run_isend, on
// the sequential engine with one job.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace pb {
namespace {

struct Cell {
  int nodes = 2;
  int ppn = 1;
  net::Bytes size{};
  bool lossy = false;
};

struct Plan {
  mpibench::Options options;  ///< seed, repetitions, engine
  std::vector<Cell> cells;    ///< grid order: config-major, size-minor
};

const std::vector<net::Bytes>& sweep_sizes() {
  // Either side of the 16 KiB eager/rendezvous switch.
  static const std::vector<net::Bytes> sizes{
      net::Bytes{0}, net::Bytes{1024}, net::Bytes{16384}, net::Bytes{65536}};
  return sizes;
}

mpibench::Options base_options(std::uint64_t seed, int repetitions) {
  mpibench::Options options;
  options.repetitions = repetitions;
  options.warmup = 2;
  options.sync_rounds = 8;
  options.seed = seed;
  return options;
}

/// n x p for n in 2..32 and p in {1, 2}, every size, plus one lossy config.
Plan sequential_plan(std::uint64_t seed) {
  Plan plan{base_options(seed, 8), {}};
  for (const int ppn : {1, 2}) {
    for (int nodes = 2; nodes <= 32; nodes *= 2) {
      for (const net::Bytes size : sweep_sizes()) {
        plan.cells.push_back({nodes, ppn, size, false});
      }
    }
  }
  for (const net::Bytes size : sweep_sizes()) {
    plan.cells.push_back({8, 1, size, true});
  }
  return plan;
}

mpibench::Options cell_options(const Plan& plan, const Cell& cell) {
  mpibench::Options options = plan.options;
  options.cluster = net::perseus(cell.nodes);
  options.procs_per_node = cell.ppn;
  if (cell.lossy) {
    options.cluster.fault.loss_rate = 0.01;
    options.cluster.fault.seed = plan.options.seed ^ 0x5deece66dULL;
  }
  return options;
}

/// Table of the lossless cells, assembled as mpibench --table does: one
/// entry per (size, contention = nprocs / 2) for each point-to-point op.
mpibench::DistributionTable assemble_table(
    const Plan& plan, const std::vector<mpibench::PointToPointResult>& results) {
  mpibench::DistributionTable table;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& cell = plan.cells[i];
    if (cell.lossy) continue;
    const int level = std::max(1, cell.nodes * cell.ppn / 2);
    table.insert(mpibench::OpKind::kPtpOneWay, cell.size, level,
                 results[i].distribution());
    table.insert(mpibench::OpKind::kPtpSender, cell.size, level,
                 stats::EmpiricalDistribution{results[i].sender_hist});
  }
  return table;
}

std::string table_text(const mpibench::DistributionTable& table) {
  std::ostringstream out;
  table.save(out);
  return out.str();
}

enum class CellClass { kEager, kRendezvous, kLossy };

CellClass classify(const Cell& cell) {
  if (cell.lossy) return CellClass::kLossy;
  return cell.size < net::Bytes{16384} ? CellClass::kEager
                                       : CellClass::kRendezvous;
}

struct Round {
  std::vector<mpibench::PointToPointResult> results;
  double seconds = 0.0;
  double class_seconds[3] = {0.0, 0.0, 0.0};
  std::vector<double> cell_ms;
};

/// One full sweep. Every cell is one operation; a cell that throws counts
/// as failed and leaves its result empty.
Round run_round(const RunContext& ctx, const Plan& plan, Outcome& out) {
  Round round;
  round.results.resize(plan.cells.size());
  Tracer& tracer = *ctx.tracer;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& cell = plan.cells[i];
    const auto t0 = Clock::now();
    ++out.attempted;
    try {
      round.results[i] = mpibench::run_isend(cell_options(plan, cell), cell.size);
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, std::string{"run_isend threw: "} + e.what());
    }
    const auto t1 = Clock::now();
    round.class_seconds[static_cast<int>(classify(cell))] +=
        seconds_between(t0, t1);
    round.cell_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (tracer.enabled()) {
      const auto& r = round.results[i];
      tracer.record("mpibench.run_isend", "mpibench", t0, t1,
                    "\"nodes\":" + std::to_string(cell.nodes) +
                        ",\"ppn\":" + std::to_string(cell.ppn) +
                        ",\"bytes\":" + std::to_string(cell.size.count()) +
                        ",\"lossy\":" + (cell.lossy ? "true" : "false") +
                        ",\"messages\":" + std::to_string(r.messages) +
                        ",\"retransmits\":" +
                        std::to_string(r.tcp_retransmits));
    }
  }
  const auto end = Clock::now();
  round.seconds = seconds_between(start, end);
  tracer.record("sweep", "mpibench", start, end);
  return round;
}

/// A round outside the measurement: no spans, and its cells are not
/// counted as the run's operations.
Round unmeasured_round(const RunContext& ctx, const Plan& plan,
                       Outcome& scratch) {
  Tracer off{false};
  RunContext quiet = ctx;
  quiet.tracer = &off;
  return run_round(quiet, plan, scratch);
}

void check_round(const Plan& plan, const Round& round, Outcome& out) {
  const int reps = plan.options.repetitions;
  std::vector<mpibench::PointToPointResult> config;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& cell = plan.cells[i];
    const mpibench::PointToPointResult& result = round.results[i];
    if (cell.lossy) {
      out.check(checks::lossy_cell(result, reps));
    } else {
      out.check(checks::cell_count(result, reps));
    }
    out.check(checks::cell_line_rate(result));
    if (!cell.lossy) config.push_back(result);
    const bool config_ends = i + 1 == plan.cells.size() ||
                             plan.cells[i + 1].nodes != cell.nodes ||
                             plan.cells[i + 1].ppn != cell.ppn ||
                             plan.cells[i + 1].lossy != cell.lossy;
    if (config_ends) {
      out.check(checks::medians_nondecreasing(config));
      config.clear();
    }
  }
}

}  // namespace

Outcome run_sweep(const RunContext& ctx) {
  Outcome out;
  const Plan plan = sequential_plan(ctx.seed);
  // Set-up: one unmeasured pass over the 8-node configs, so first-touch
  // allocation and thread start-up are not charged to the first sweep.
  Plan warm = plan;
  std::erase_if(warm.cells,
                [](const Cell& c) { return c.nodes != 8 || c.lossy; });
  Outcome scratch;
  (void)unmeasured_round(ctx, warm, scratch);
  out.check(scratch.errors.empty(), "warm-up sweep failed");
  const double setup_seconds = seconds_since(ctx.process_start);

  // Whole sweeps until the run's time is up; every sweep is checked.
  std::vector<double> sweeps;
  std::vector<double> rates;
  std::vector<double> cell_p50_ms;
  std::vector<double> by_class[3];
  std::string text;
  // Peak RSS after the first sweep: it keeps creeping up over repeated
  // sweeps, so a later reading would depend on how many sweeps the host's
  // speed allowed.
  double rss_mb = 0.0;
  const auto loop_start = Clock::now();
  do {
    const Round round = run_round(ctx, plan, out);
    if (sweeps.empty()) rss_mb = peak_rss_mb();
    sweeps.push_back(round.seconds);
    rates.push_back(static_cast<double>(plan.cells.size()) / round.seconds);
    cell_p50_ms.push_back(median(round.cell_ms));
    for (int c = 0; c < 3; ++c) by_class[c].push_back(round.class_seconds[c]);
    check_round(plan, round, out);
    text = table_text(assemble_table(plan, round.results));
    std::istringstream in{text};
    out.check(checks::table_counts(mpibench::DistributionTable::load(in),
                                   plan.options.repetitions));
  } while (seconds_since(loop_start) < ctx.seconds);
  std::printf("sweep_s: %zu sweeps of %zu cells, median %.4f s, fastest "
              "tenth %.4f s\n",
              sweeps.size(), plan.cells.size(), median(sweeps),
              quantile(sweeps, 0.1));
  set_end_to_end(out, setup_seconds, rates, cell_p50_ms, rss_mb);
  if (ctx.tracer->enabled()) {
    out.per_layer = {{"mpibench.eager_cell_s", median(by_class[0]), "s"},
                     {"mpibench.rendezvous_cell_s", median(by_class[1]), "s"},
                     {"mpibench.lossy_cell_s", median(by_class[2]), "s"}};
    std::istringstream in{text};
    const mpibench::DistributionTable table =
        mpibench::DistributionTable::load(in);
    ProbeInputs inputs;
    inputs.table = &table;
    inputs.measured = out.per_layer;
    run_probes(ctx, inputs, out);
  }
  return out;
}

}  // namespace pb

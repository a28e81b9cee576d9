// perfbench --selftest: every output check must accept a real output and
// reject the same output deliberately corrupted, so no check passes by
// construction. Prints one PASS/FAIL line per case; exits 0 only if all
// pass.
#include <cstdio>
#include <sstream>
#include <string>

#include "bench.h"
#include "checks.h"
#include "core/parse.h"
#include "core/predict.h"
#include "models.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "serve_session.h"

namespace pb {
namespace {

constexpr int kRepetitions = 8;

struct Tally {
  int failures = 0;

  /// `real` must pass and `corrupt` must fail.
  void expect(const char* what, const checks::Error& real,
              const checks::Error& corrupt) {
    const bool ok = !real && corrupt;
    if (!ok) ++failures;
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (real) std::printf("     real output rejected: %s\n", real->c_str());
    if (corrupt) std::printf("     corrupted output rejected: %s\n", corrupt->c_str());
    if (!corrupt) std::printf("     corrupted output was accepted\n");
  }
};

mpibench::PointToPointResult cell(int nodes, net::Bytes size, double loss) {
  mpibench::Options options;
  options.cluster = net::perseus(nodes);
  options.cluster.fault.loss_rate = loss;
  options.repetitions = kRepetitions;
  options.warmup = 2;
  options.sync_rounds = 8;
  options.seed = 5;
  return mpibench::run_isend(options, size);
}

/// Adds one to the weight of the first histogram cell in a saved table.
std::string bump_first_cell(const std::string& text) {
  std::istringstream in{text};
  std::ostringstream out;
  std::string line;
  for (int n = 0; std::getline(in, line); ++n) {
    if (n == 4) {  // magic, count, key, cell count, first cell
      std::istringstream fields{line};
      std::string lo;
      std::string hi;
      std::uint64_t weight = 0;
      fields >> lo >> hi >> weight;
      line = lo + " " + hi + " " + std::to_string(weight + 1);
    }
    out << line << '\n';
  }
  return out.str();
}

mpibench::DistributionTable load(const std::string& text) {
  std::istringstream in{text};
  return mpibench::DistributionTable::load(in);
}

}  // namespace

int run_selftest() {
  Tally tally;

  // MPIBench cells.
  const auto small = cell(4, net::Bytes{1024}, 0.0);
  const auto large = cell(4, net::Bytes{65536}, 0.0);
  mpibench::PointToPointResult off_by_one = small;
  off_by_one.messages += 1;
  tally.expect("cell message count off by one",
               checks::cell_count(small, kRepetitions),
               checks::cell_count(off_by_one, kRepetitions));
  mpibench::PointToPointResult too_fast = large;
  too_fast.oneway.add(1e-4);  // 64 KiB in 100 us: 5 Gbit/s
  tally.expect("one-way time faster than the NIC line rate",
               checks::cell_line_rate(large), checks::cell_line_rate(too_fast));
  const std::vector<mpibench::PointToPointResult> in_order{small, large};
  const std::vector<mpibench::PointToPointResult> swapped{large, small};
  tally.expect("median falling with message size",
               checks::medians_nondecreasing(in_order),
               checks::medians_nondecreasing(swapped));
  const auto lossy = cell(4, net::Bytes{65536}, 0.01);
  mpibench::PointToPointResult no_retransmit = lossy;
  no_retransmit.tcp_retransmits = 0;
  tally.expect("lossy cell without retransmits",
               checks::lossy_cell(lossy, kRepetitions),
               checks::lossy_cell(no_retransmit, kRepetitions));

  // Distribution table.
  const mpibench::DistributionTable table =
      models::measure_halo_table(5, kRepetitions, /*jobs=*/1, 8);
  std::ostringstream saved;
  table.save(saved);
  const std::string text = saved.str();
  tally.expect("table cell count changed",
               checks::table_counts(load(text), kRepetitions),
               checks::table_counts(load(bump_first_cell(text)), kRepetitions));

  // PEVPM predictions.
  const pevpm::Model jacobi = pevpm::parse_annotated_source(
      models::jacobi_source(models::kJacobiSerialSeconds), "jacobi");
  pevpm::PredictOptions options;
  options.threads = worker_threads();
  const pevpm::Prediction dist = pevpm::predict(jacobi, 4, {}, table, options);
  const double serial = models::kIterations * models::kJacobiSerialSeconds;
  tally.expect("prediction below its serial bound",
               checks::at_least_serial_share(dist.seconds(), serial, 4, "P=4"),
               checks::at_least_serial_share(serial / 4 * 0.99, serial, 4,
                                             "P=4"));
  pevpm::PredictOptions fixed = options;
  fixed.sampler.contention = pevpm::ContentionSource::kFixed;
  fixed.sampler.fixed_contention = 2;
  fixed.sampler.mode = pevpm::PredictionMode::kAverage;
  const double average = pevpm::predict(jacobi, 4, {}, table, fixed).seconds();
  fixed.sampler.mode = pevpm::PredictionMode::kMinimum;
  const double minimum = pevpm::predict(jacobi, 4, {}, table, fixed).seconds();
  tally.expect("minimum-mode above average-mode",
               checks::min_at_most_average(minimum, average, "P=4"),
               checks::min_at_most_average(average * 1.01, average, "P=4"));
  const double actual = models::jacobi_actual_seconds(4, 1, 5);
  tally.expect("prediction off the packet-level run by more than 5 %",
               checks::agrees_with_actual(dist.seconds(), actual, "P=4"),
               checks::agrees_with_actual(actual * 1.06, actual, "P=4"));
  options.threads = 1;
  const pevpm::Prediction single = pevpm::predict(jacobi, 4, {}, table, options);
  pevpm::Prediction moved = single;
  moved.makespan.add(single.makespan.max());
  tally.expect("thread counts disagree",
               checks::identical_prediction(dist, single, "P=4"),
               checks::identical_prediction(dist, moved, "P=4"));
  pevpm::Prediction stuck = dist;
  stuck.deadlocked = true;
  tally.expect("deadlocked prediction", checks::no_deadlock(dist, "P=4"),
               checks::no_deadlock(stuck, "P=4"));

  // pevpmd replies against local evaluation.
  Tracer off{false};
  ServeSession session{table, worker_threads(), 5, off};
  session.warm();
  const CacheCounts before = session.cache_counts();
  const LoopResult loop = session.run(1, 0.2, 1);
  const CacheCounts after = session.cache_counts();
  const std::vector<Sample>& samples = loop.samples;
  std::vector<Sample> altered = samples;
  if (!altered.empty()) {
    std::string& summary = altered.back().summary;
    const std::size_t digit = summary.find_last_of("0123456789");
    summary[digit] = summary[digit] == '9' ? '0' : static_cast<char>(summary[digit] + 1);
  }
  const auto first_error = [](const std::vector<std::string>& errors) {
    return errors.empty() ? checks::Error{} : checks::Error{errors.front()};
  };
  tally.expect("serve reply summary altered",
               samples.empty() ? checks::Error{"no reply sampled"}
                               : first_error(session.verify(samples)),
               first_error(session.verify(altered)));

  const std::uint64_t misses = after.misses - before.misses;
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t requests = loop.replies.size();
  tally.expect("serve cache miss count off by one",
               checks::cache_mix(hits, misses, requests, 10),
               checks::cache_mix(hits - 1, misses + 1, requests, 10));

  std::printf("selftest: %d failure(s)\n", tally.failures);
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace pb

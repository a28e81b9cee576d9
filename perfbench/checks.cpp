#include "checks.h"

#include <string>

namespace pb::checks {
namespace {

std::string cell_name(const mpibench::PointToPointResult& cell) {
  return std::to_string(cell.nodes) + "x" + std::to_string(cell.procs_per_node) +
         " " + std::to_string(cell.size.count()) + "B";
}

/// One-way messages the MPIBench pair pattern times per cell: nprocs / 2
/// pairs, each timed in both directions, for every measured repetition.
std::uint64_t expected_messages(int nprocs, int repetitions) {
  const auto pairs = static_cast<std::uint64_t>(nprocs / 2);
  return pairs * 2 * static_cast<std::uint64_t>(repetitions);
}

}  // namespace

Error cell_count(const mpibench::PointToPointResult& cell, int repetitions) {
  const std::uint64_t want =
      expected_messages(cell.nodes * cell.procs_per_node, repetitions);
  if (cell.messages != want || cell.oneway.total() != want) {
    return cell_name(cell) + ": timed " + std::to_string(cell.messages) +
           " messages (" + std::to_string(cell.oneway.total()) +
           " samples), pair pattern implies " + std::to_string(want);
  }
  return std::nullopt;
}

Error cell_line_rate(const mpibench::PointToPointResult& cell) {
  if (cell.size.count() == 0) return std::nullopt;
  const double wire_floor =
      static_cast<double>(cell.size.count()) * 8.0 / kLineRateBps;
  const double fastest = cell.oneway.summary().min();
  if (fastest + kClockSyncSlackS < wire_floor) {
    return cell_name(cell) + ": fastest one-way " + std::to_string(fastest) +
           " s beats the line-rate floor " + std::to_string(wire_floor) + " s";
  }
  return std::nullopt;
}

Error medians_nondecreasing(
    std::span<const mpibench::PointToPointResult> cells) {
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const double before = cells[i - 1].distribution().quantile(0.5);
    const double after = cells[i].distribution().quantile(0.5);
    if (after < before) {
      return cell_name(cells[i]) + ": median one-way " + std::to_string(after) +
             " s is below the smaller message's " + std::to_string(before) +
             " s";
    }
  }
  return std::nullopt;
}

Error lossy_cell(const mpibench::PointToPointResult& cell, int repetitions) {
  if (Error e = cell_count(cell, repetitions)) return "lossy " + *e;
  if (cell.tcp_retransmits == 0) {
    return "lossy " + cell_name(cell) + ": no retransmits at " +
           std::to_string(cell.faults_injected) + " injected losses";
  }
  return std::nullopt;
}

Error table_counts(const mpibench::DistributionTable& table,
                   int repetitions) {
  for (const mpibench::OpKind op :
       {mpibench::OpKind::kPtpOneWay, mpibench::OpKind::kPtpSender}) {
    for (const net::Bytes bytes : table.sizes(op)) {
      for (const int level : table.contentions(op)) {
        const stats::EmpiricalDistribution* cell =
            table.exact(op, bytes, level);
        if (cell == nullptr) continue;
        const std::uint64_t want =
            2 * static_cast<std::uint64_t>(level) *
            static_cast<std::uint64_t>(repetitions);
        if (cell->sample_count() != want) {
          return "table " + mpibench::to_string(op) + " " +
                 std::to_string(bytes.count()) + "B level " +
                 std::to_string(level) + ": " +
                 std::to_string(cell->sample_count()) + " samples, expected " +
                 std::to_string(want);
        }
      }
    }
  }
  return std::nullopt;
}

Error cache_mix(std::uint64_t hits, std::uint64_t misses,
                std::uint64_t requests, std::uint64_t requests_per_miss) {
  if (misses * requests_per_miss == requests && hits + misses == 2 * requests) {
    return std::nullopt;
  }
  return "serve cache: " + std::to_string(hits) + " hits and " +
         std::to_string(misses) + " misses for " + std::to_string(requests) +
         " requests, one in " + std::to_string(requests_per_miss) +
         " meant to miss";
}

Error identical_text(const std::string& got, const std::string& want,
                     const std::string& what) {
  if (got == want) return std::nullopt;
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return what + ": differs at byte " + std::to_string(at) + " of " +
         std::to_string(want.size());
}

Error min_at_most_average(double minimum, double average,
                          const std::string& what) {
  if (minimum <= average) return std::nullopt;
  return what + ": minimum-mode " + std::to_string(minimum) +
         " s exceeds average-mode " + std::to_string(average) + " s";
}

Error at_least_serial_share(double predicted, double serial_seconds,
                            int procs, const std::string& what) {
  const double floor = serial_seconds / procs;
  if (predicted >= floor) return std::nullopt;
  return what + ": " + std::to_string(predicted) +
         " s is below the serial share " + std::to_string(floor) + " s";
}

Error agrees_with_actual(double predicted, double actual,
                         const std::string& what) {
  const double gap = actual > 0.0 ? (predicted - actual) / actual : 1.0;
  if (gap <= kPaperTolerance && gap >= -kPaperTolerance) return std::nullopt;
  return what + ": predicted " + std::to_string(predicted) +
         " s vs packet-level " + std::to_string(actual) + " s (" +
         std::to_string(gap * 100.0) + " %)";
}

Error identical_prediction(const pevpm::Prediction& a,
                           const pevpm::Prediction& b,
                           const std::string& what) {
  const stats::Summary& x = a.makespan;
  const stats::Summary& y = b.makespan;
  if (x.count() == y.count() && x.mean() == y.mean() && x.min() == y.min() &&
      x.max() == y.max() && x.variance() == y.variance() &&
      a.deadlocked == b.deadlocked) {
    return std::nullopt;
  }
  return what + ": makespans differ (" + std::to_string(x.mean()) + " vs " +
         std::to_string(y.mean()) + " s)";
}

Error no_deadlock(const pevpm::Prediction& prediction,
                  const std::string& what) {
  if (!prediction.deadlocked) return std::nullopt;
  return what + ": prediction deadlocked";
}

}  // namespace pb::checks

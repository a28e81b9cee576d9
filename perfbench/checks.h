// Output checks. Each tests a property the method must have, or compares
// two independent paths to the same answer; none compares against a stored
// copy of earlier output. A check returns an error message, or nothing when
// the output passes. selftest.cpp shows each one rejecting corrupted output.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/predict.h"
#include "mpibench/benchmark.h"
#include "mpibench/table.h"

namespace pb::checks {

using Error = std::optional<std::string>;

/// Fast Ethernet NIC line rate of the simulated cluster, bits per second.
constexpr double kLineRateBps = 100e6;
/// Slack for MPIBench's software clock synchronisation: a one-way time is
/// the difference of two synchronised clocks, so it may read short by the
/// residual offset between them.
constexpr double kClockSyncSlackS = 20e-6;
/// Largest relative gap the paper allows between a distribution-mode
/// prediction and the measured run.
constexpr double kPaperTolerance = 0.05;

/// The cell timed exactly the messages its pairing pattern implies.
[[nodiscard]] Error cell_count(const mpibench::PointToPointResult& cell,
                               int repetitions);
/// No message beat the NIC line rate, up to the clock-sync slack.
[[nodiscard]] Error cell_line_rate(const mpibench::PointToPointResult& cell);
/// Median one-way time does not fall as the message grows; `cells` holds
/// one configuration's cells in ascending size order.
[[nodiscard]] Error medians_nondecreasing(
    std::span<const mpibench::PointToPointResult> cells);
/// A lossy cell delivered every message and had to retransmit to do so.
[[nodiscard]] Error lossy_cell(const mpibench::PointToPointResult& cell,
                               int repetitions);

/// Every point-to-point entry of a table built from pair-pattern cells
/// holds 2 x contention x repetitions samples.
[[nodiscard]] Error table_counts(const mpibench::DistributionTable& table,
                                 int repetitions);
/// Artifact-cache counters of a serve loop (deltas over the loop) match
/// the intended request mix: every predict request looks up one model and
/// one table, and exactly one request in `requests_per_miss` carries a new
/// table text and misses.
[[nodiscard]] Error cache_mix(std::uint64_t hits, std::uint64_t misses,
                              std::uint64_t requests,
                              std::uint64_t requests_per_miss);
/// Two texts that must agree byte for byte.
[[nodiscard]] Error identical_text(const std::string& got,
                                   const std::string& want,
                                   const std::string& what);

/// Minimum-mode prediction is at most the average-mode one at the same
/// fixed contention.
[[nodiscard]] Error min_at_most_average(double minimum, double average,
                                        const std::string& what);
/// No schedule runs faster than perfect division of the serial work.
[[nodiscard]] Error at_least_serial_share(double predicted,
                                          double serial_seconds, int procs,
                                          const std::string& what);
/// A prediction within the paper's tolerance of the measured run.
[[nodiscard]] Error agrees_with_actual(double predicted, double actual,
                                       const std::string& what);
/// Two predictions with bit-identical makespan summaries.
[[nodiscard]] Error identical_prediction(const pevpm::Prediction& a,
                                         const pevpm::Prediction& b,
                                         const std::string& what);
[[nodiscard]] Error no_deadlock(const pevpm::Prediction& prediction,
                                const std::string& what);

}  // namespace pb::checks

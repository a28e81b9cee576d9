// The PEVPM models the benchmark predicts, and the packet-level "actual"
// Jacobi run they are checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpibench/table.h"

namespace pb::models {

/// Halo row of the Section 6 Jacobi grid: 256 floats.
constexpr int kHaloBytes = 256 * 4;
/// Full-grid serial time of one Jacobi iteration (Figure 5).
constexpr double kJacobiSerialSeconds = 3.24;
/// The communication-bound variant divides the serial work by 100 (the
/// Table B regime, where messages dominate).
constexpr double kCommBoundSerialSeconds = kJacobiSerialSeconds / 100.0;
/// Iterations in each model's loop and in the packet-level run.
constexpr int kIterations = 4;

/// Figure 5 annotations for `iterations` Jacobi iterations whose serial
/// section costs `serial_seconds` / numprocs.
[[nodiscard]] std::string jacobi_source(double serial_seconds,
                                        int iterations = kIterations);

/// Host-measured Jacobi on the simulated cluster (the packet-level run):
/// virtual seconds for kIterations iterations on nodes x ppn ranks.
[[nodiscard]] double jacobi_actual_seconds(int nodes, int ppn,
                                           std::uint64_t seed);

/// Distribution table over the MPIBench pair pattern at the Jacobi halo
/// size, for configs n x p (n in 2..max_nodes, p in {1, 2}).
[[nodiscard]] mpibench::DistributionTable measure_halo_table(
    std::uint64_t seed, int repetitions, int jobs, int max_nodes = 64);

}  // namespace pb::models

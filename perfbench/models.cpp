#include "models.h"

#include <cstdio>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace pb::models {

std::string jacobi_source(double serial_seconds, int iterations) {
  char serial[160];
  std::snprintf(serial, sizeof serial,
                "// PEVPM Serial on perseus time = %.17g/numprocs\n",
                serial_seconds);
  return "// PEVPM Param xsize = 256\n"
         "// PEVPM Loop iterations = " +
         std::to_string(iterations) + R"(
// PEVPM {
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM }
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM }
// PEVPM }
// PEVPM {
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM }
// PEVPM }
)" + serial + "// PEVPM }\n";
}

double jacobi_actual_seconds(int nodes, int ppn, std::uint64_t seed) {
  smpi::Runtime::Options options;
  options.cluster = net::perseus(nodes);
  options.procs_per_node = ppn;
  options.nprocs = nodes * ppn;
  options.seed = seed;
  smpi::Runtime runtime{options};
  const net::Bytes halo{kHaloBytes};
  runtime.run([&](smpi::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    // The Figure 5 exchange: even ranks send first, odd ranks receive
    // first, so neighbouring blocking sends never wait on each other.
    for (int it = 0; it < kIterations; ++it) {
      if (r % 2 == 0) {
        if (r != 0) comm.send_bytes(halo, r - 1);
        if (r != p - 1) {
          comm.send_bytes(halo, r + 1);
          (void)comm.recv_bytes(halo, r + 1);
        }
        if (r != 0) (void)comm.recv_bytes(halo, r - 1);
      } else {
        if (r != p - 1) (void)comm.recv_bytes(halo, r + 1);
        (void)comm.recv_bytes(halo, r - 1);
        comm.send_bytes(halo, r - 1);
        if (r != p - 1) comm.send_bytes(halo, r + 1);
      }
      comm.compute(kJacobiSerialSeconds / p);
    }
  });
  return des::to_seconds(runtime.elapsed());
}

mpibench::DistributionTable measure_halo_table(std::uint64_t seed,
                                               int repetitions, int jobs,
                                               int max_nodes) {
  mpibench::Options options;
  options.repetitions = repetitions;
  options.warmup = 4;
  options.seed = seed;
  std::vector<mpibench::Config> configs;
  for (const int ppn : {1, 2}) {
    for (int nodes = 2; nodes <= max_nodes; nodes *= 2) configs.push_back({nodes, ppn});
  }
  const std::vector<net::Bytes> sizes{net::Bytes{kHaloBytes}};
  return mpibench::measure_isend_table(options, sizes, configs, jobs);
}

}  // namespace pb::models

// mpibench: command-line MPI communication benchmark for the simulated
// cluster, producing human-readable summaries, histogram CSVs and PEVPM
// distribution-table files.
//
// Usage:
//   mpibench [options]
//     --nodes N          nodes to benchmark on (default 16)
//     --ppn P            processes per node (default 1)
//     --sizes a,b,c      message sizes in bytes (default 0,1024,16384,65536)
//     --reps R           measured repetitions (default 200)
//     --op OP            isend | barrier | bcast | alltoall (default isend)
//     --jobs J           benchmark J (size x config) cells concurrently on
//                        independent simulator instances; 0 = one per
//                        hardware thread. Output is byte-identical to
//                        --jobs 1 (default 1)
//     --bin-us W         histogram bin width in microseconds (default 10)
//     --table FILE       ALSO sweep configs 2..N x ppn and write a PEVPM
//                        distribution table to FILE
//     --histograms       print full per-size histograms
//     --cluster FILE     cluster description overrides ("key = value")
//     --seed S
//     --sim-threads T    run each simulator instance on T threads with the
//                        switch-partitioned conservative parallel engine;
//                        0 = sequential engine. Output is byte-identical
//                        for every T >= 1, not always to T = 0
//                        (default 0)
//
//   Fault injection (see src/net/fault.h). With any of these the summary
//   grows tail quantiles (p99.9) and retransmission/fault counters:
//     --loss-rate P      i.i.d. per-packet loss probability on every link
//     --fault-profile S  burst:ENTER,EXIT,LOSS (Gilbert-Elliott) or
//                        down:START_MS,END_MS (link outage; repeatable)
//     --fault-seed S     fault RNG master seed (default: --seed)
//     --rto-ms R         TCP retransmission-timeout floor in milliseconds
//
// SIGINT/SIGTERM during a sweep stop unstarted cells; completed cells are
// still printed (and the distribution table flushed, partially) before the
// process exits with status 3.
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure or interruption.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/version.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

std::atomic<bool> g_interrupted{false};

extern "C" void handle_signal(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

struct Args {
  int nodes = 16;
  int ppn = 1;
  std::vector<net::Bytes> sizes{net::Bytes{0}, net::Bytes{1024}, net::Bytes{16384}, net::Bytes{65536}};
  int reps = 200;
  std::string op = "isend";
  int jobs = 1;
  double bin_us = 10.0;
  std::string table_file;
  std::string cluster_file;
  bool histograms = false;
  std::uint64_t seed = 1;
  int sim_threads = 0;

  double loss_rate = -1.0;  ///< < 0 means "not set"
  std::vector<std::string> fault_profiles;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  double rto_ms = -1.0;     ///< < 0 means "not set"
};

std::vector<net::Bytes> parse_sizes(const std::string& list) {
  std::vector<net::Bytes> out;
  std::stringstream ss{list};
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(static_cast<net::Bytes>(std::stoull(item)));
  }
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--ppn P] [--sizes a,b,c] [--reps R]\n"
               "          [--op isend|barrier|bcast|alltoall] [--jobs J]\n"
               "          [--bin-us W]\n"
               "          [--table FILE] [--histograms] [--cluster FILE]\n"
               "          [--seed S] [--sim-threads T]\n"
               "          [--loss-rate P] [--fault-profile burst:E,X,L]\n"
               "          [--fault-profile down:START_MS,END_MS]\n"
               "          [--fault-seed S] [--rto-ms R]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--nodes") {
      args.nodes = std::stoi(value());
    } else if (flag == "--ppn") {
      args.ppn = std::stoi(value());
    } else if (flag == "--sizes") {
      args.sizes = parse_sizes(value());
    } else if (flag == "--reps") {
      args.reps = std::stoi(value());
    } else if (flag == "--op") {
      args.op = value();
    } else if (flag == "--jobs") {
      args.jobs = std::stoi(value());
    } else if (flag == "--bin-us") {
      args.bin_us = std::stod(value());
    } else if (flag == "--table") {
      args.table_file = value();
    } else if (flag == "--cluster") {
      args.cluster_file = value();
    } else if (flag == "--histograms") {
      args.histograms = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--sim-threads") {
      args.sim_threads = std::stoi(value());
      if (args.sim_threads < 0) usage(argv[0]);
    } else if (flag == "--loss-rate") {
      args.loss_rate = std::stod(value());
    } else if (flag == "--fault-profile") {
      args.fault_profiles.push_back(value());
    } else if (flag == "--fault-seed") {
      args.fault_seed = std::stoull(value());
      args.fault_seed_set = true;
    } else if (flag == "--rto-ms") {
      args.rto_ms = std::stod(value());
    } else if (flag == "--version") {
      std::printf("%s\n", pevpm::version_string("mpibench").c_str());
      std::exit(0);
    } else {
      usage(argv[0]);
    }
  }
  return args;
}

/// Applies a --fault-profile spec ("burst:E,X,L" or "down:START_MS,END_MS")
/// onto `fault`. Exits with usage() on a malformed spec.
void apply_fault_profile(const std::string& spec, net::FaultParams& fault,
                         const char* argv0) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage(argv0);
  const std::string kind = spec.substr(0, colon);
  std::vector<double> fields;
  std::stringstream ss{spec.substr(colon + 1)};
  std::string item;
  while (std::getline(ss, item, ',')) fields.push_back(std::stod(item));
  if (kind == "burst" && fields.size() == 3) {
    fault.ge_p_enter = fields[0];
    fault.ge_p_exit = fields[1];
    fault.ge_loss_bad = fields[2];
  } else if (kind == "down" && fields.size() == 2) {
    fault.down.push_back(net::DownWindow{des::SimTime{} + des::from_micros(fields[0] * 1e3),
                                         des::SimTime{} + des::from_micros(fields[1] * 1e3)});
  } else {
    usage(argv0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // Long sweeps (--jobs over big grids) should die gracefully: a SIGINT or
  // SIGTERM stops unstarted cells; whatever already finished still prints
  // (and the table flushes, partially) before exiting non-zero.
  struct sigaction action{};
  action.sa_handler = handle_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  mpibench::Options opt;
  opt.cancel = &g_interrupted;
  opt.cluster = net::perseus(std::max(2, args.nodes));
  if (!args.cluster_file.empty()) {
    std::ifstream in{args.cluster_file};
    if (!in) {
      std::fprintf(stderr, "cannot open cluster file %s\n",
                   args.cluster_file.c_str());
      return 3;
    }
    opt.cluster = net::parse_cluster(in, opt.cluster);
  }
  opt.cluster.nodes = args.nodes;
  opt.procs_per_node = args.ppn;
  opt.repetitions = args.reps;
  opt.warmup = std::max(8, args.reps / 10);
  opt.bin_width_us = args.bin_us;
  opt.seed = args.seed;
  opt.sim_threads = args.sim_threads;

  if (args.loss_rate >= 0.0) opt.cluster.fault.loss_rate = args.loss_rate;
  for (const std::string& spec : args.fault_profiles) {
    apply_fault_profile(spec, opt.cluster.fault, argv[0]);
  }
  if (args.rto_ms >= 0.0) {
    opt.cluster.tcp.rto_initial = des::from_micros(args.rto_ms * 1e3);
    opt.cluster.tcp.rto_min = opt.cluster.tcp.rto_initial;
  }
  if (opt.cluster.fault.enabled()) {
    // The fault RNG rides the benchmark seed unless pinned explicitly, so
    // "--seed S" reproduces the whole experiment, loss pattern included.
    opt.cluster.fault.seed = args.fault_seed_set ? args.fault_seed : args.seed;
  }
  const bool faults = opt.cluster.fault.enabled();

  std::printf("%s", net::describe(opt.cluster).c_str());
  std::printf("benchmarking %s, %dx%d, %d repetitions\n\n", args.op.c_str(),
              args.nodes, args.ppn, args.reps);

  if (args.op == "isend") {
    // The fault-mode table adds the tail quantiles and retransmission
    // counters; the default stays bit-identical to a lossless build.
    if (faults) {
      std::printf("%10s %10s %10s %10s %10s %10s %10s %8s %8s %8s\n", "bytes",
                  "min_us", "avg_us", "med_us", "p99_us", "p999_us", "max_us",
                  "mbit", "retx", "faults");
    } else {
      std::printf("%10s %10s %10s %10s %10s %8s\n", "bytes", "min_us",
                  "avg_us", "p99_us", "max_us", "mbit");
    }
    // All sizes are benchmarked up front (fanned out when --jobs > 1) and
    // printed afterwards in size order, so the output never depends on the
    // job count.
    const auto results = mpibench::run_isend_sweep(opt, args.sizes, args.jobs);
    for (const auto& result : results) {
      if (result.messages == 0 && g_interrupted.load()) continue;  // skipped
      const net::Bytes size = result.size;
      const auto& s = result.oneway.summary();
      const auto dist = result.distribution();
      if (faults) {
        std::printf(
            "%10llu %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %8.1f %8llu "
            "%8llu\n",
            static_cast<unsigned long long>(size.count()), s.min() * 1e6,
            s.mean() * 1e6, dist.quantile(0.5) * 1e6,
            dist.quantile(0.99) * 1e6, dist.quantile(0.999) * 1e6,
            s.max() * 1e6,
            size > net::Bytes{} ? size.to_double() * 8 / s.mean() / 1e6 : 0.0,
            static_cast<unsigned long long>(result.tcp_retransmits),
            static_cast<unsigned long long>(result.faults_injected));
      } else {
        std::printf("%10llu %10.1f %10.1f %10.1f %10.1f %8.1f\n",
                    static_cast<unsigned long long>(size.count()), s.min() * 1e6,
                    s.mean() * 1e6, dist.quantile(0.99) * 1e6, s.max() * 1e6,
                    size > net::Bytes{} ? size.to_double() * 8 / s.mean() / 1e6
                                : 0.0);
      }
      if (args.histograms) {
        std::printf("%s\n", result.oneway.to_csv().c_str());
      }
    }
    if (faults) {
      std::printf("\n# fault injection active: counters above are per-size "
                  "totals (retx = TCP retransmits,\n# faults = packets lost "
                  "to injection); timeouts surface as ~rto_ms modes in the "
                  "tail.\n");
    }
  } else if (args.op == "barrier" || args.op == "bcast" ||
             args.op == "alltoall") {
    std::printf("%10s %10s %10s %10s\n", "bytes", "min_us", "avg_us",
                "max_us");
    // Barrier is size-independent: run one cell. Other collectives sweep
    // sizes like isend — computed first (in parallel under --jobs), printed
    // in size order.
    const std::size_t cells =
        args.op == "barrier" ? std::min<std::size_t>(1, args.sizes.size())
                             : args.sizes.size();
    std::vector<mpibench::CollectiveResult> coll(cells);
    pevpm::parallel_for(
        static_cast<int>(cells), pevpm::resolve_threads(args.jobs),
        [&](int i) {
          if (g_interrupted.load(std::memory_order_relaxed)) return;
          if (args.op == "barrier") {
            coll[i] = mpibench::run_barrier(opt);
          } else if (args.op == "bcast") {
            coll[i] = mpibench::run_bcast(opt, args.sizes[i]);
          } else {
            coll[i] = mpibench::run_alltoall(opt, args.sizes[i]);
          }
        });
    for (std::size_t i = 0; i < cells; ++i) {
      const mpibench::CollectiveResult& result = coll[i];
      if (result.operations == 0 && g_interrupted.load()) continue;  // skipped
      const net::Bytes size = args.op == "barrier" ? args.sizes.at(0)
                                                   : args.sizes[i];
      const auto& s = result.completion.summary();
      std::printf("%10llu %10.1f %10.1f %10.1f\n",
                  static_cast<unsigned long long>(size.count()), s.min() * 1e6,
                  s.mean() * 1e6, s.max() * 1e6);
      if (faults) {
        std::printf("# tcp retransmits %llu, timeouts %llu, faults %llu\n",
                    static_cast<unsigned long long>(result.tcp_retransmits),
                    static_cast<unsigned long long>(result.tcp_timeouts),
                    static_cast<unsigned long long>(result.faults_injected));
      }
      if (args.histograms) {
        std::printf("%s\n", result.completion.to_csv().c_str());
      }
    }
  } else {
    std::fprintf(stderr, "unknown op '%s'\n", args.op.c_str());
    return 3;
  }

  if (!args.table_file.empty()) {
    std::printf("\nsweeping configurations for the distribution table...\n");
    std::vector<mpibench::Config> configs;
    for (int n = 2; n <= args.nodes; n *= 2) configs.push_back({n, args.ppn});
    if (configs.empty() || configs.back().nodes != args.nodes) {
      configs.push_back({args.nodes, args.ppn});
    }
    const auto table = mpibench::measure_isend_table(opt, args.sizes, configs,
                                                     args.jobs);
    std::ofstream out{args.table_file};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.table_file.c_str());
      return 3;
    }
    table.save(out);
    std::printf("wrote %zu%s table entries to %s\n", table.size(),
                g_interrupted.load() ? " (partial)" : "",
                args.table_file.c_str());
  }
  if (g_interrupted.load()) {
    std::fprintf(stderr,
                 "interrupted: skipped unstarted cells, flushed the rest\n");
    return 3;
  }
  return 0;
}

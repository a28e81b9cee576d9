// Per-layer probes for the traced run. Each times a fixed amount of work
// through one layer's public calls and reports the median of a few
// repeats. A workload that measured a layer metric itself passes it in
// ProbeInputs::measured and the probe for it is skipped.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "bench.h"
#include "core/parse.h"
#include "core/predict.h"
#include "core/sampler.h"
#include "des/engine.h"
#include "des/process.h"
#include "models.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "net/packet.h"
#include "scaling/model.h"
#include "serve/json.h"
#include "serve_session.h"
#include "stats/rng.h"

namespace pb {
namespace {

constexpr int kRepeats = 3;

/// Adds the metric unless the workload already measured it.
class Sink {
 public:
  Sink(const RunContext& ctx, const ProbeInputs& inputs, Outcome& out)
      : ctx_{ctx}, inputs_{inputs}, out_{out} {}

  [[nodiscard]] bool wanted(const std::string& name) const {
    return std::none_of(inputs_.measured.begin(), inputs_.measured.end(),
                        [&](const Metric& m) { return m.name == name; });
  }
  void add(const std::string& name, double value, const char* unit) {
    if (wanted(name)) out_.per_layer.push_back({name, value, unit});
  }
  /// Times `fn` kRepeats times under one span each; returns the median of
  /// what `fn` reports.
  double repeat(const char* span, const char* layer,
                const std::function<double()>& fn) {
    std::vector<double> values;
    for (int i = 0; i < kRepeats; ++i) {
      const auto t0 = Clock::now();
      values.push_back(fn());
      ctx_.tracer->record(span, layer, t0, Clock::now());
    }
    return median(values);
  }

 private:
  const RunContext& ctx_;
  const ProbeInputs& inputs_;
  Outcome& out_;
};

/// A self-rescheduling event: 64 such chains keep the heap populated.
struct ChainEvent {
  des::Engine* engine;
  std::uint64_t* left;
  double step_us;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    engine->schedule_in(des::from_micros(step_us), ChainEvent{*this});
  }
};

double des_events_per_s() {
  des::Engine engine;
  std::uint64_t left = 1'000'000;
  for (int c = 0; c < 64; ++c) {
    engine.schedule_in(des::from_micros(1.0 + c),
                       ChainEvent{&engine, &left, 1.0 + c});
  }
  const auto t0 = Clock::now();
  engine.run();
  return static_cast<double>(engine.processed()) / seconds_since(t0);
}

struct SwitchCost {
  double ns = 0.0;
  double ctx = 0.0;
};

/// Two processes alternating delay(): every delay is one activation.
SwitchCost des_rank_switch() {
  constexpr int kDelays = 10000;
  des::Engine engine;
  std::unique_ptr<des::Process> a;
  std::unique_ptr<des::Process> b;
  const auto body = [](std::unique_ptr<des::Process>& self) {
    return [&self] {
      for (int i = 0; i < kDelays; ++i) self->delay(des::from_micros(1.0));
    };
  };
  a = std::make_unique<des::Process>(engine, "a", body(a));
  b = std::make_unique<des::Process>(engine, "b", body(b));
  const std::uint64_t ctx0 = context_switches();
  const auto t0 = Clock::now();
  engine.run();
  const double wall = seconds_since(t0);
  const double activations = 2.0 * (kDelays + 1);
  return {wall * 1e9 / activations,
          static_cast<double>(context_switches() - ctx0) / activations};
}

smpi::Runtime::Options two_ranks(int nodes) {
  smpi::Runtime::Options options;
  options.cluster = net::perseus(nodes);
  options.nprocs = 2;
  options.seed = 7;
  return options;
}

/// Network::send on a 64-node cluster: every node sends one full frame
/// per batch to a rotating partner, spaced so no queue overflows.
double net_packets_per_s(Outcome& out) {
  constexpr int kBatches = 600;
  constexpr int kNodes = 64;
  smpi::Runtime runtime{two_ranks(kNodes)};
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  const auto t0 = Clock::now();
  runtime.run([&](smpi::Comm& comm) {
    if (comm.rank() != 0) return;
    std::uint64_t id = 1;
    for (int batch = 0; batch < kBatches; ++batch) {
      for (int node = 0; node < kNodes; ++node) {
        net::Packet packet;
        packet.id = id++;
        packet.src_node = node;
        packet.dst_node = (node + 1 + batch % (kNodes - 1)) % kNodes;
        packet.wire_bytes = net::Bytes{1538};
        packet.payload = net::Bytes{1460};
        runtime.network().send(
            packet, [&](const net::Packet&) { ++delivered; },
            [&](const net::Packet&) { ++dropped; });
      }
      comm.compute(400e-6);
    }
  });
  const double wall = seconds_since(t0);
  out.check(dropped == 0 && delivered == kBatches * kNodes,
            "net probe: " + std::to_string(dropped) + " packets dropped");
  return static_cast<double>(delivered) / wall;
}

/// Transport::send of 64 KiB messages between 32 node pairs.
double net_tcp_segments_per_s(Outcome& out) {
  constexpr int kRounds = 12;
  constexpr int kPairs = 32;
  smpi::Runtime runtime{two_ranks(2 * kPairs)};
  std::uint64_t delivered = 0;
  const auto t0 = Clock::now();
  runtime.run([&](smpi::Comm& comm) {
    if (comm.rank() != 0) return;
    for (int round = 0; round < kRounds; ++round) {
      for (int pair = 0; pair < kPairs; ++pair) {
        runtime.transport().send((1ULL << 40) + pair, pair, pair + kPairs,
                                 net::Bytes{65536}, [&] { ++delivered; });
      }
      comm.compute(8e-3);
    }
  });
  const double wall = seconds_since(t0);
  out.check(delivered == kRounds * kPairs,
            "tcp probe: " + std::to_string(delivered) + " messages delivered");
  return static_cast<double>(runtime.transport().segments_sent()) / wall;
}

struct PingPong {
  double us = 0.0;
  double ctx = 0.0;
};

/// Two-rank ping-pong; host time and context switches per message.
PingPong mpi_pingpong(net::Bytes size, int round_trips) {
  smpi::Runtime runtime{two_ranks(2)};
  const std::uint64_t ctx0 = context_switches();
  const auto t0 = Clock::now();
  runtime.run([&](smpi::Comm& comm) {
    for (int i = 0; i < round_trips; ++i) {
      if (comm.rank() == 0) {
        comm.send_bytes(size, 1);
        (void)comm.recv_bytes(size, 1);
      } else {
        (void)comm.recv_bytes(size, 0);
        comm.send_bytes(size, 0);
      }
    }
  });
  const double messages = 2.0 * round_trips;
  return {seconds_since(t0) * 1e6 / messages,
          static_cast<double>(context_switches() - ctx0) / messages};
}

/// One MPIBench cell through run_isend, host seconds.
double mpibench_cell(int nodes, net::Bytes size, double loss, int sim_threads) {
  mpibench::Options options;
  options.cluster = net::perseus(nodes);
  options.cluster.fault.loss_rate = loss;
  options.repetitions = 8;
  options.warmup = 2;
  options.sync_rounds = 8;
  options.sim_threads = sim_threads;
  const auto t0 = Clock::now();
  (void)mpibench::run_isend(options, size);
  return seconds_since(t0);
}

double empirical_sample_ns(const mpibench::DistributionTable& table) {
  constexpr int kDraws = 2'000'000;
  const auto sizes = table.sizes(mpibench::OpKind::kPtpOneWay);
  const auto levels = table.contentions(mpibench::OpKind::kPtpOneWay);
  const stats::EmpiricalDistribution* dist =
      table.exact(mpibench::OpKind::kPtpOneWay, sizes.front(), levels.back());
  stats::Rng rng{99};
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDraws; ++i) sink += dist->sample(rng);
  const double wall = seconds_since(t0);
  if (sink < 0.0) std::printf("negative sample sum\n");
  return wall * 1e9 / kDraws;
}

/// Delivery draws cycling over on-grid keys (measured size and level) and
/// off-grid keys (between levels, between or beyond sizes).
double sampler_draw_ns(const mpibench::DistributionTable& table) {
  constexpr int kDraws = 1'000'000;
  const auto sizes = table.sizes(mpibench::OpKind::kPtpOneWay);
  const auto levels = table.contentions(mpibench::OpKind::kPtpOneWay);
  std::vector<std::pair<net::Bytes, int>> keys;
  for (const int level : levels) {
    keys.emplace_back(sizes.front(), level);
    keys.emplace_back(net::Bytes{sizes.back().count() + 512}, level + 1);
  }
  pevpm::DeliverySampler sampler{table, pevpm::SamplerOptions{}, 5};
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDraws; ++i) {
    const auto& [bytes, level] = keys[static_cast<std::size_t>(i) % keys.size()];
    sink += sampler.delivery_seconds(bytes, level);
  }
  const double wall = seconds_since(t0);
  if (sink < 0.0) std::printf("negative draw sum\n");
  return wall * 1e9 / kDraws;
}

double parse_us() {
  constexpr int kParses = 200;
  const std::string jacobi = models::jacobi_source(models::kJacobiSerialSeconds);
  const std::string comm = models::jacobi_source(models::kCommBoundSerialSeconds);
  std::vector<double> times;
  for (int i = 0; i < kParses; ++i) {
    const auto t0 = Clock::now();
    (void)pevpm::parse_annotated_source(jacobi, "jacobi");
    (void)pevpm::parse_annotated_source(comm, "comm");
    times.push_back(seconds_since(t0) * 1e6 / 2.0);
  }
  return median(times);
}

double table_load_ms(const mpibench::DistributionTable& table) {
  std::ostringstream saved;
  table.save(saved);
  const std::string text = saved.str();
  std::vector<double> times;
  for (int i = 0; i < 50; ++i) {
    std::istringstream in{text};
    const auto t0 = Clock::now();
    (void)mpibench::DistributionTable::load(in);
    times.push_back(seconds_since(t0) * 1e3);
  }
  return median(times);
}

/// One replication each of Jacobi at P = 64 and the comm-bound variant at
/// P = 256, through pevpm::run_replication.
double replication_ms(const mpibench::DistributionTable& table) {
  const pevpm::Model jacobi = pevpm::parse_annotated_source(
      models::jacobi_source(models::kJacobiSerialSeconds), "jacobi");
  const pevpm::Model comm = pevpm::parse_annotated_source(
      models::jacobi_source(models::kCommBoundSerialSeconds), "comm");
  pevpm::PredictOptions options;
  options.threads = 1;
  std::vector<double> times;
  for (int rep = 0; rep < 10; ++rep) {
    const auto t0 = Clock::now();
    (void)pevpm::run_replication(jacobi, 64, {}, table, options, rep, 11 + rep);
    (void)pevpm::run_replication(comm, 256, {}, table, options, rep, 11 + rep);
    times.push_back(seconds_since(t0) * 1e3);
  }
  return median(times);
}

double json_roundtrip_us(const std::string& frame) {
  std::vector<double> times;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const std::string back = serve::Json::parse(frame).dump();
    times.push_back(seconds_since(t0) * 1e6);
    if (back.empty()) std::printf("empty dump\n");
  }
  return median(times);
}

}  // namespace

void run_probes(const RunContext& ctx, const ProbeInputs& inputs,
                Outcome& out) {
  Sink sink{ctx, inputs, out};
  const mpibench::DistributionTable& table = *inputs.table;

  sink.add("des.events_per_s",
           sink.repeat("probe.des_chain", "des", des_events_per_s), "1/s");
  std::vector<SwitchCost> switches;
  (void)sink.repeat("probe.des_rank_switch", "des", [&] {
    switches.push_back(des_rank_switch());
    return 0.0;
  });
  std::vector<double> ns;
  std::vector<double> ctx_per;
  for (const SwitchCost& s : switches) {
    ns.push_back(s.ns);
    ctx_per.push_back(s.ctx);
  }
  sink.add("des.rank_switch_ns", median(ns), "ns");
  sink.add("des.ctx_switches_per_rank_switch", median(ctx_per), "count");

  sink.add("net.packets_per_s",
           sink.repeat("probe.net_send", "net",
                       [&] { return net_packets_per_s(out); }),
           "1/s");
  sink.add("net.tcp_segments_per_s",
           sink.repeat("probe.tcp_send", "net",
                       [&] { return net_tcp_segments_per_s(out); }),
           "1/s");

  std::vector<double> small_ctx;
  sink.add("mpi.pingpong_us.0B",
           sink.repeat("probe.mpi_pingpong_0B", "mpi",
                       [&] {
                         const PingPong p = mpi_pingpong(net::Bytes{0}, 2000);
                         small_ctx.push_back(p.ctx);
                         return p.us;
                       }),
           "us");
  sink.add("mpi.pingpong_us.64KiB",
           sink.repeat("probe.mpi_pingpong_64KiB", "mpi",
                       [] { return mpi_pingpong(net::Bytes{65536}, 200).us; }),
           "us");
  sink.add("mpi.ctx_switches_per_msg", median(small_ctx), "count");

  if (sink.wanted("mpibench.eager_cell_s")) {
    sink.add("mpibench.eager_cell_s",
             sink.repeat("probe.mpibench_eager", "mpibench",
                         [] { return mpibench_cell(8, net::Bytes{1024}, 0.0, 0); }),
             "s");
    sink.add("mpibench.rendezvous_cell_s",
             sink.repeat("probe.mpibench_rendezvous", "mpibench",
                         [] { return mpibench_cell(8, net::Bytes{65536}, 0.0, 0); }),
             "s");
    sink.add("mpibench.lossy_cell_s",
             sink.repeat("probe.mpibench_lossy", "mpibench",
                         [] { return mpibench_cell(8, net::Bytes{65536}, 0.01, 0); }),
             "s");
  }
  if (sink.wanted("mpibench.partitioned_cell_s")) {
    // The only probe off the single CPU: its two simulation threads, and
    // the rank threads they start, may run on every CPU the process had.
    allow_all_cpus();
    sink.add("mpibench.partitioned_cell_s",
             sink.repeat("probe.mpibench_partitioned", "mpibench",
                         [] { return mpibench_cell(48, net::Bytes{1024}, 0.0, 2); }),
             "s");
    confine_to_one_cpu();
  }

  sink.add("stats.empirical_sample_ns",
           sink.repeat("probe.empirical_sample", "stats",
                       [&] { return empirical_sample_ns(table); }),
           "ns");
  sink.add("core.parse_us", sink.repeat("probe.parse", "core", parse_us), "us");
  sink.add("core.table_load_ms",
           sink.repeat("probe.table_load", "core",
                       [&] { return table_load_ms(table); }),
           "ms");
  sink.add("core.sampler_draw_ns",
           sink.repeat("probe.sampler_draw", "core",
                       [&] { return sampler_draw_ns(table); }),
           "ns");
  sink.add("core.replication_ms",
           sink.repeat("probe.replication", "core",
                       [&] { return replication_ms(table); }),
           "ms");
  sink.add("scaling.fit_ms",
           sink.repeat("probe.scaling_fit", "scaling",
                       [&] {
                         const auto t0 = Clock::now();
                         (void)scaling::fit_scaling_model(table);
                         return seconds_since(t0) * 1e3;
                       }),
           "ms");

  // The serve layer: the workload's own server when it has one, otherwise
  // a short closed loop against a probe server on the same table.
  std::unique_ptr<ServeSession> own;
  ServeSession* session = inputs.session;
  if (session == nullptr) {
    own = std::make_unique<ServeSession>(table, worker_threads(), ctx.seed,
                                         *ctx.tracer);
    session = own.get();
    session->warm();
  }
  if (sink.wanted("serve.hit_ms")) {
    const LoopResult loop = session->run(2, 1.0, 0);
    std::vector<double> hit;
    std::vector<double> miss;
    for (const Reply& r : loop.replies) {
      (r.kind == RequestKind::kHit ? hit : miss).push_back(r.latency_ms);
    }
    out.check(loop.failed == 0, "serve probe: failed requests");
    sink.add("serve.hit_ms", median(hit), "ms");
    sink.add("serve.miss_ms", median(miss), "ms");
  }
  sink.add("serve.ping_us", session->ping_us(500), "us");
  sink.add("serve.json_roundtrip_us",
           json_roundtrip_us(session->frame_text(0, 1)), "us");
}

}  // namespace pb

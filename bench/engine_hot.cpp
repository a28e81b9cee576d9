// engine_hot — hot-path microbenchmark for the discrete-event core.
//
// Measures, on the post-overhaul engine (des::Engine + SmallFn slots +
// route-cached Network):
//
//   * events/sec on a representative event mix (timer chains with
//     packet-sized captures, immediate wake-ups, and cancellations),
//   * the same mix on the pre-overhaul reference engine
//     (tests/support/reference_engine.h: std::priority_queue + dual hash
//     sets + std::function), giving a live speedup ratio,
//   * packets/sec and allocations/packet through the full Network
//     forwarding path (route cache + transit pool + TCP-sized frames),
//   * the conservative-parallel thread-scaling curve: one fixed
//     multi-switch contention workload on an 8-partition PartitionSet,
//     driven by 1, 2, 4 and 8 worker threads,
//
// with heap allocations counted by instrumented global operator new. The
// result is printed as JSON (and written to PEVPM_BENCH_JSON when set).
//
// Usage:
//   engine_hot [--check BASELINE.json]
//
// With --check, current throughput must be at least 80% of the committed
// baseline and allocation rates must not exceed baseline + 0.05; any miss
// prints the offending metric and exits 1 (the CI perf-smoke gate). The
// thread-scaling gate (>= 3x events/sec at 8 threads over 1) only applies
// when the machine actually has 8 hardware threads; on smaller machines it
// prints a skip notice instead of failing.
// PEVPM_BENCH_QUICK=1 scales iteration counts down ~10x.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/packet.h"
#include "support/reference_engine.h"

// ---------------------------------------------------------------------------
// Instrumented allocator: every operator-new call site in the process is
// counted, so allocs/event is exact rather than sampled.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Packet-sized payload carried by the chain events, mimicking what a link
/// arrival event carries (a net::Packet plus its delivery callback). The
/// old engine heap-allocates every such callback; the new one stores it in
/// the event slot.
struct Payload {
  std::uint64_t words[6] = {1, 2, 3, 4, 5, 6};
};

/// The representative mix, templated over the engine type: `chains`
/// self-rescheduling timer chains at staggered deterministic delays. Each
/// firing schedules its successor (with a Payload capture), an immediate
/// zero-delay wake-up (the process hand-off pattern), and on every fourth
/// firing a long-delay timer that the next firing cancels (the TCP
/// retransmission-timer pattern).
template <typename EngineT>
struct MixState {
  EngineT& engine;
  std::uint64_t lcg;
  std::uint64_t budget;
  typename EngineT::EventId timer{};
  std::uint64_t fired = 0;

  std::uint64_t next_rand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  void arm() {
    const des::Duration dt{1 + static_cast<std::int64_t>(next_rand() & 1023)};
    Payload payload;
    engine.schedule_in(dt, [this, payload] {
      (void)payload;
      if (timer.valid()) {
        engine.cancel(timer);
        timer = {};
      }
      engine.schedule_in(des::Duration{}, [] {});
      ++fired;
      if ((fired & 3) == 0) {
        timer = engine.schedule_in(des::Duration{100000}, [] {});
      }
      if (--budget > 0) arm();
    });
  }
};

struct MixResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

template <typename EngineT>
MixResult run_mix(std::uint64_t events_per_chain, int chains) {
  EngineT engine;
  std::vector<MixState<EngineT>> states;
  states.reserve(chains);
  for (int c = 0; c < chains; ++c) {
    states.push_back(MixState<EngineT>{
        engine, 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c),
        events_per_chain});
  }
  // Warm the pools/queues so steady-state allocation is what gets counted.
  for (auto& s : states) s.arm();
  engine.run();
  for (auto& s : states) {
    s.budget = events_per_chain;
    s.arm();
  }
  const std::uint64_t processed0 = engine.processed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  engine.run();
  const double elapsed = seconds_since(t0);
  const std::uint64_t events = engine.processed() - processed0;
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  MixResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  return result;
}

struct ForwardResult {
  double packets_per_sec = 0;
  double allocs_per_packet = 0;
  double events_per_sec = 0;
};

/// End-to-end forwarding: ping-pong trains across the switch chain of a
/// 16-node Perseus cluster, exercising the route cache, the transit pool
/// and the per-hop switch-latency events exactly as TCP segments do.
/// One ping-pong train bouncing a frame between a node pair. The delivery
/// callback captures a single Train* so the driver itself stays inside
/// std::function's small-object buffer — every allocation counted below
/// comes from the stack under test, not the harness.
struct Train {
  net::Network* network;
  std::uint64_t* remaining;
  std::uint64_t* delivered;
  int src;
  int dst;

  void bounce() {
    if (*remaining == 0) return;
    --*remaining;
    net::Packet packet;
    packet.src_node = src;
    packet.dst_node = dst;
    packet.wire_bytes = net::Bytes{1500};
    network->send(
        packet,
        [this](const net::Packet&) {
          ++*delivered;
          std::swap(src, dst);
          bounce();
        },
        nullptr);
  }
};

ForwardResult run_forwarding(std::uint64_t packets) {
  des::PartitionSet sim{1, des::Duration{}};
  des::Engine& engine = sim.engine(des::PartitionId{0});
  net::Network network{sim, net::perseus(16)};
  constexpr int kTrains = 32;
  std::uint64_t remaining = packets < 2000 ? packets : 2000;
  std::uint64_t delivered = 0;

  // Pairs span switch boundaries so routes have trunk hops.
  std::vector<Train> trains;
  trains.reserve(kTrains);
  for (int t = 0; t < kTrains; ++t) {
    trains.push_back(Train{&network, &remaining, &delivered, t % 8,
                           8 + (t % 8)});
  }
  // Warm-up pass fills the route cache and grows the pools.
  for (Train& train : trains) train.bounce();
  engine.run();

  remaining = packets;
  delivered = 0;
  const std::uint64_t processed0 = engine.processed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (Train& train : trains) train.bounce();
  engine.run();
  const double elapsed = seconds_since(t0);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  ForwardResult result;
  result.packets_per_sec = static_cast<double>(delivered) / elapsed;
  result.allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  result.events_per_sec =
      static_cast<double>(engine.processed() - processed0) / elapsed;
  return result;
}

// ---------------------------------------------------------------------------
// Conservative-parallel scaling: the multi-switch contention scenario. Eight
// partitions (one per "switch"), each loaded with self-rescheduling timer
// chains as in the mix above, plus a ring of cross-partition posts so the
// mailbox exchange and window barriers are on the measured path. The
// workload is a pure function of its constants — every thread count
// executes exactly the same events — so events/sec at 1 vs 8 threads is a
// clean parallel-efficiency measurement.

constexpr int kScalingPartitions = 8;
constexpr int kScalingChainsPerPartition = 64;
/// Window size: chains fire every 1..1024 ticks, so each partition executes
/// a few hundred events per window and the barrier cost is amortised.
constexpr des::Duration kScalingLookahead{4096};

struct PartitionChain {
  des::PartitionSet& sim;
  int part;
  std::uint64_t lcg;
  std::uint64_t budget;
  std::uint64_t fired = 0;

  std::uint64_t next_rand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  void arm() {
    des::Engine& engine = sim.engine(des::PartitionId{part});
    const des::Duration dt{1 + static_cast<std::int64_t>(next_rand() & 1023)};
    Payload payload;
    engine.schedule_in(dt, [this, payload] {
      (void)payload;
      ++fired;
      sim.engine(des::PartitionId{part}).schedule_in(des::Duration{}, [] {});
      if ((fired & 7) == 0) {
        // Cross-partition ping to the ring neighbour, one lookahead out —
        // the trunk-hop pattern the partitioned Network generates.
        const int to = (part + 1) % kScalingPartitions;
        sim.post(des::PartitionId{part}, des::PartitionId{to},
                 sim.engine(des::PartitionId{part}).now() + kScalingLookahead,
                 [] {});
      }
      if (--budget > 0) arm();
    });
  }
};

/// Runs the scaling scenario once and returns events/sec.
double run_partitioned(std::uint64_t events_per_chain, unsigned threads) {
  des::PartitionSet sim{kScalingPartitions, kScalingLookahead};
  std::vector<PartitionChain> chains;
  chains.reserve(kScalingPartitions * kScalingChainsPerPartition);
  for (int p = 0; p < kScalingPartitions; ++p) {
    for (int c = 0; c < kScalingChainsPerPartition; ++c) {
      chains.push_back(PartitionChain{
          sim, p,
          0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(p * kScalingChainsPerPartition + c),
          events_per_chain});
    }
  }
  for (PartitionChain& chain : chains) chain.arm();
  const auto t0 = Clock::now();
  sim.run(threads);
  const double elapsed = seconds_since(t0);
  return static_cast<double>(sim.processed()) / elapsed;
}

struct ScalingResult {
  double events_per_sec_t1 = 0;
  double events_per_sec_t2 = 0;
  double events_per_sec_t4 = 0;
  double events_per_sec_t8 = 0;
  [[nodiscard]] double speedup_t8() const {
    return events_per_sec_t8 / events_per_sec_t1;
  }
};

ScalingResult run_scaling(std::uint64_t events_per_chain) {
  // One throwaway pass warms the allocator arenas and thread stacks so the
  // per-thread-count passes start from the same state.
  (void)run_partitioned(events_per_chain / 4 + 1, 2);
  ScalingResult result;
  result.events_per_sec_t1 = run_partitioned(events_per_chain, 1);
  result.events_per_sec_t2 = run_partitioned(events_per_chain, 2);
  result.events_per_sec_t4 = run_partitioned(events_per_chain, 4);
  result.events_per_sec_t8 = run_partitioned(events_per_chain, 8);
  return result;
}

/// Minimal lookup of `"key": <number>` in a flat JSON document. Good
/// enough for the baseline files this benchmark writes itself.
bool json_number(const std::string& doc, const std::string& key,
                 double& out) {
  const std::string needle = "\"" + key + "\"";
  const auto pos = doc.find(needle);
  if (pos == std::string::npos) return false;
  const auto colon = doc.find(':', pos + needle.size());
  if (colon == std::string::npos) return false;
  out = std::strtod(doc.c_str() + colon + 1, nullptr);
  return true;
}

struct Results {
  MixResult mix;
  MixResult ref_mix;
  ForwardResult forward;
  ScalingResult scaling;
};

std::string to_json(const Results& r) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"schema\": \"pevpm-engine-hot-v2\",\n"
      "  \"engine_events_per_sec\": %.0f,\n"
      "  \"engine_allocs_per_event\": %.4f,\n"
      "  \"reference_events_per_sec\": %.0f,\n"
      "  \"reference_allocs_per_event\": %.4f,\n"
      "  \"speedup_vs_reference\": %.2f,\n"
      "  \"forward_packets_per_sec\": %.0f,\n"
      "  \"forward_allocs_per_packet\": %.4f,\n"
      "  \"forward_events_per_sec\": %.0f,\n"
      "  \"partitioned_events_per_sec_t1\": %.0f,\n"
      "  \"partitioned_events_per_sec_t2\": %.0f,\n"
      "  \"partitioned_events_per_sec_t4\": %.0f,\n"
      "  \"partitioned_events_per_sec_t8\": %.0f,\n"
      "  \"partitioned_speedup_t8\": %.2f\n"
      "}\n",
      r.mix.events_per_sec, r.mix.allocs_per_event,
      r.ref_mix.events_per_sec, r.ref_mix.allocs_per_event,
      r.mix.events_per_sec / r.ref_mix.events_per_sec,
      r.forward.packets_per_sec, r.forward.allocs_per_packet,
      r.forward.events_per_sec, r.scaling.events_per_sec_t1,
      r.scaling.events_per_sec_t2, r.scaling.events_per_sec_t4,
      r.scaling.events_per_sec_t8, r.scaling.speedup_t8());
  return buf;
}

/// Applies the CI gate: throughput >= 80% of baseline, allocation rates no
/// more than baseline + 0.05. Returns the number of violations.
int check_against(const Results& r, const std::string& baseline_doc) {
  struct Gate {
    const char* key;
    double value;
    bool higher_is_better;
  };
  const Gate gates[] = {
      {"engine_events_per_sec", r.mix.events_per_sec, true},
      {"forward_packets_per_sec", r.forward.packets_per_sec, true},
      {"partitioned_events_per_sec_t1", r.scaling.events_per_sec_t1, true},
      {"engine_allocs_per_event", r.mix.allocs_per_event, false},
      {"forward_allocs_per_packet", r.forward.allocs_per_packet, false},
  };
  int violations = 0;
  for (const Gate& gate : gates) {
    double baseline = 0;
    if (!json_number(baseline_doc, gate.key, baseline)) {
      std::fprintf(stderr, "check: baseline is missing \"%s\"\n", gate.key);
      ++violations;
      continue;
    }
    if (gate.higher_is_better) {
      const double floor = baseline * 0.8;
      if (gate.value < floor) {
        std::fprintf(stderr,
                     "check: %s regressed: %.0f < %.0f (80%% of baseline "
                     "%.0f)\n",
                     gate.key, gate.value, floor, baseline);
        ++violations;
      }
    } else if (gate.value > baseline + 0.05) {
      std::fprintf(stderr, "check: %s regressed: %.4f > baseline %.4f + 0.05\n",
                   gate.key, gate.value, baseline);
      ++violations;
    }
  }
  // The parallel-efficiency gate is absolute (not baseline-relative): the
  // partitioned engine must deliver >= 3x events/sec with 8 worker threads
  // over 1 on the contention scenario. It is meaningless without the
  // hardware to back it, so it only arms on machines with >= 8 threads.
  if (std::thread::hardware_concurrency() >= 8) {
    const double speedup = r.scaling.speedup_t8();
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "check: partitioned_speedup_t8 regressed: %.2fx < 3.00x "
                   "required on %u hardware threads\n",
                   speedup, std::thread::hardware_concurrency());
      ++violations;
    }
  } else {
    std::printf(
        "check: skipping partitioned_speedup_t8 gate (needs >= 8 hardware "
        "threads, have %u)\n",
        std::thread::hardware_concurrency());
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  std::string check_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check BASELINE.json]\n", argv[0]);
      return 2;
    }
  }

  const std::uint64_t mix_events =
      benchutil::quick() ? 20000 : 200000;  // per chain x 8 chains
  const std::uint64_t packets = benchutil::quick() ? 20000 : 200000;

  const std::uint64_t scaling_events =
      benchutil::quick() ? 4000 : 40000;  // per chain x 64 chains x 8 parts

  Results results;
  results.mix = run_mix<des::Engine>(mix_events, 8);
  results.ref_mix = run_mix<refdes::Engine>(mix_events, 8);
  results.forward = run_forwarding(packets);
  results.scaling = run_scaling(scaling_events);

  const std::string json = to_json(results);
  std::printf("%s", json.c_str());
  if (const char* path = benchutil::json_path()) {
    std::ofstream out{path};
    out << json;
  }

  if (!check_file.empty()) {
    std::ifstream in{check_file};
    if (!in) {
      std::fprintf(stderr, "cannot open baseline %s\n", check_file.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const int violations = check_against(results, ss.str());
    if (violations > 0) return 1;
    std::printf("check: all gates passed against %s\n", check_file.c_str());
  }
  return 0;
}

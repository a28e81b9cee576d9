// Workload `serve`: an in-process pevpmd under a closed loop of at most
// nproc connections. Nine in ten requests repeat a (model, table) pair the
// artifact cache holds; one in ten carries a table text the server has not
// seen. Every prediction is small (P = 4 or 8, four replications).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "checks.h"
#include "models.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve_session.h"

namespace pb {
namespace {

constexpr int kModelVariants = 4;
constexpr int kRoundLength = 10;  ///< requests per round; the last misses
constexpr int kReplications = 4;

/// A ring exchange in the directive language; variants differ in their
/// serial time, so each is its own cache entry.
std::string model_text(int variant) {
  return "param serial = 0.00" + std::to_string(2 + variant) + R"(
loop 10 {
  runon procnum % 2 == 0 {
    runon procnum != numprocs - 1 {
      message send size = 1024 to = procnum + 1
      message recv size = 1024 from = procnum + 1
    }
  } else {
    message recv size = 1024 from = procnum - 1
    message send size = 1024 to = procnum - 1
  }
  serial time = serial / numprocs
}
)";
}

std::string save(const mpibench::DistributionTable& table) {
  std::ostringstream out;
  table.save(out);
  return out.str();
}

}  // namespace

struct ServeSession::Impl {
  mpibench::DistributionTable table;
  std::string table_text;
  std::uint64_t seed = 1;
  Tracer& tracer;
  std::string socket_path;
  serve::Server server;
  std::thread accept_thread;

  Impl(const mpibench::DistributionTable& t, int threads, std::uint64_t s,
       Tracer& tr)
      : table{t},
        table_text{save(t)},
        seed{s},
        tracer{tr},
        socket_path{".bench_out/serve-" + std::to_string(::getpid()) +
                    ".sock"},
        server{options(socket_path, threads)},
        accept_thread{[this] { server.serve(); }} {}

  static serve::ServerOptions options(const std::string& path, int threads) {
    serve::ServerOptions o;
    o.unix_path = path;
    o.service.threads = threads;
    o.service.queue_capacity = 64;
    o.service.cache_capacity = 32;
    return o;
  }

  /// The request a client sends at position `index` of its sequence.
  pevpm::PredictRequest request(int client, std::uint64_t index) const {
    pevpm::PredictRequest r;
    const bool miss = index % kRoundLength == kRoundLength - 1;
    r.model_text = model_text(miss ? 0
                                   : static_cast<int>((index + static_cast<std::uint64_t>(client)) %
                                                      kModelVariants));
    r.model_name = "model";
    if (miss) {
      // A re-measured table in miniature: the same cells plus one entry no
      // other request carries, so its text is new to the cache.
      mpibench::DistributionTable variant = table;
      variant.insert(mpibench::OpKind::kBarrier, net::Bytes{0},
                     1 + client * 1000000 + static_cast<int>(index / kRoundLength),
                     stats::EmpiricalDistribution::constant(1e-3));
      r.table_text = save(variant);
    } else {
      r.table_text = table_text;
    }
    r.table_label = "<inline>";
    r.procs = {index % 2 == 0 ? 4 : 8};
    r.options.replications = kReplications;
    r.options.seed = seed * 1000003 + static_cast<std::uint64_t>(client) * 100000 + index;
    r.options.threads = worker_threads();
    return r;
  }

  static serve::Json frame(const pevpm::PredictRequest& r) {
    serve::Json f{serve::Json::Object{}};
    f.set("type", serve::Json{"predict"});
    f.set("model_text", serve::Json{r.model_text});
    f.set("table_text", serve::Json{r.table_text});
    serve::Json procs{serve::Json::Array{}};
    for (const int p : r.procs) procs.as_array().emplace_back(p);
    f.set("procs", std::move(procs));
    f.set("reps", serve::Json{r.options.replications});
    f.set("seed", serve::Json{r.options.seed});
    return f;
  }
};

ServeSession::ServeSession(const mpibench::DistributionTable& table,
                           int threads, std::uint64_t seed, Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  impl_ = std::make_unique<Impl>(table, threads, seed, tracer);
}

ServeSession::~ServeSession() {
  impl_->server.request_shutdown();
  impl_->accept_thread.join();
}

void ServeSession::warm() {
  serve::Client client = serve::Client::connect_unix(impl_->socket_path);
  for (int v = 0; v < kModelVariants; ++v) {
    (void)client.call(Impl::frame(impl_->request(v, 0)));
  }
}

std::string ServeSession::frame_text(int client, std::uint64_t index) const {
  return Impl::frame(impl_->request(client, index)).dump();
}

LoopResult ServeSession::run(int clients, double seconds, int sample_every) {
  std::vector<LoopResult> per_client(static_cast<std::size_t>(clients));
  std::atomic<bool> stop{false};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([this, c, sample_every, start, &stop, &per_client] {
      LoopResult& mine = per_client[static_cast<std::size_t>(c)];
      // Address space only: pages are touched as replies arrive, and the
      // vector never reallocates within a run.
      mine.replies.reserve(std::size_t{1} << 21);
      try {
        serve::Client client =
            serve::Client::connect_unix(impl_->socket_path);
        for (std::uint64_t index = 0;; ++index) {
          if (index % kRoundLength == 0 &&
              stop.load(std::memory_order_relaxed)) {
            break;
          }
          const pevpm::PredictRequest request = impl_->request(c, index);
          const serve::Json frame = Impl::frame(request);
          const bool miss = index % kRoundLength == kRoundLength - 1;
          ++mine.attempted;
          const auto t0 = Clock::now();
          const serve::Json reply = client.call(frame);
          const auto t1 = Clock::now();
          impl_->tracer.record("serve.request", "serve", t0, t1,
                               std::string{"\"kind\":\""} +
                                   (miss ? "miss" : "hit") + "\",\"procs\":" +
                                   std::to_string(request.procs[0]));
          const serve::Json* status = reply.find("status");
          const serve::Json* summary = reply.find("summary");
          if (status == nullptr || status->as_int64() != 200 ||
              summary == nullptr) {
            ++mine.failed;
            if (mine.errors.size() < 4) {
              mine.errors.push_back("serve reply: " + reply.dump());
            }
            continue;
          }
          mine.replies.push_back(
              {static_cast<float>(seconds_between(t0, t1) * 1e3),
               static_cast<float>(seconds_between(start, t1)),
               miss ? RequestKind::kMiss : RequestKind::kHit});
          if (sample_every > 0 &&
              index % static_cast<std::uint64_t>(sample_every) == 0) {
            mine.samples.push_back({c, index, summary->as_string()});
          }
        }
      } catch (const std::exception& e) {
        ++mine.failed;
        mine.errors.push_back(std::string{"serve client: "} + e.what());
      }
    });
  }
  while (seconds_since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  LoopResult all;
  all.elapsed_s = seconds_since(start);
  all.peak_rss_mb = peak_rss_mb();
  for (LoopResult& r : per_client) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.replies.insert(all.replies.end(), r.replies.begin(), r.replies.end());
    for (Sample& s : r.samples) all.samples.push_back(std::move(s));
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
  }
  return all;
}

std::vector<std::string> ServeSession::verify(
    const std::vector<Sample>& samples) const {
  std::vector<std::string> errors;
  for (const Sample& s : samples) {
    const pevpm::PredictRequest request = impl_->request(s.client, s.index);
    const pevpm::PredictReport local = pevpm::run_request(request);
    if (auto e = checks::identical_text(
            s.summary, local.summary,
            "serve reply " + std::to_string(s.client) + "/" +
                std::to_string(s.index) + " vs local core/request")) {
      errors.push_back(*e);
    }
  }
  return errors;
}

CacheCounts ServeSession::cache_counts() {
  serve::Client client = serve::Client::connect_unix(impl_->socket_path);
  serve::Json frame{serve::Json::Object{}};
  frame.set("type", serve::Json{"stats"});
  const serve::Json reply = client.call(frame);
  const serve::Json* stats = reply.find("stats");
  const serve::Json* cache = stats == nullptr ? nullptr : stats->find("cache");
  if (cache == nullptr) throw std::runtime_error{"stats reply: " + reply.dump()};
  return {cache->find("hits")->as_uint64(), cache->find("misses")->as_uint64()};
}

double ServeSession::ping_us(int count) {
  serve::Client client = serve::Client::connect_unix(impl_->socket_path);
  serve::Json ping{serve::Json::Object{}};
  ping.set("type", serve::Json{"ping"});
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    (void)client.call(ping);
    const auto t1 = Clock::now();
    times.push_back(seconds_between(t0, t1) * 1e6);
    impl_->tracer.record("serve.ping", "serve", t0, t1);
  }
  return median(times);
}

Outcome run_serve(const RunContext& ctx) {
  Outcome out;
  constexpr int kTableRepetitions = 40;
  const mpibench::DistributionTable table = models::measure_halo_table(
      ctx.seed, kTableRepetitions, /*jobs=*/1, /*max_nodes=*/16);
  out.check(checks::table_counts(table, kTableRepetitions));
  ServeSession session{table, worker_threads(), ctx.seed, *ctx.tracer};
  session.warm();
  const double setup_seconds = seconds_since(ctx.process_start);

  const CacheCounts before = session.cache_counts();
  // 499 is coprime with the round of ten, with the two P values and with
  // the four model variants, so the samples cover hits and misses alike.
  const LoopResult loop =
      session.run(worker_threads(), ctx.seconds, /*sample_every=*/499);
  const CacheCounts after = session.cache_counts();
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  for (const std::string& e : loop.errors) out.check(false, e);
  for (const std::string& e : session.verify(loop.samples)) out.check(false, e);
  out.check(!loop.samples.empty(), "serve: no reply was sampled");
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  out.check(checks::cache_mix(hits, misses, loop.replies.size(), kRoundLength));
  std::printf("serve cache: %llu hits, %llu misses over the loop (%.2f %% of "
              "lookups miss)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              100.0 * static_cast<double>(misses) /
                  static_cast<double>(std::max<std::uint64_t>(1, hits + misses)));

  // A round is a block of consecutive completions across all connections.
  constexpr std::size_t kBlock = 500;
  std::vector<Reply> replies = loop.replies;
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.done_s < b.done_s; });
  std::vector<double> rates;
  std::vector<double> block_p50_ms;
  std::vector<double> block;
  std::vector<double> hit;
  std::vector<double> miss;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    (r.kind == RequestKind::kHit ? hit : miss).push_back(r.latency_ms);
    block.push_back(r.latency_ms);
    if (block.size() == kBlock) {
      // The first block has no earlier completion to time from.
      if (i >= kBlock) {
        rates.push_back(static_cast<double>(kBlock) /
                        (r.done_s - replies[i - kBlock].done_s));
        block_p50_ms.push_back(median(block));
      }
      block.clear();
    }
  }
  std::printf("serve: %zu replies in %.2f s (%zu hits, %zu misses), %zu "
              "sampled and checked; per block of %zu, median %.1f replies/s "
              "and p50 %.4f ms\n",
              loop.replies.size(), loop.elapsed_s, hit.size(), miss.size(),
              loop.samples.size(), kBlock, median(rates),
              median(block_p50_ms));
  set_end_to_end(out, setup_seconds, rates, block_p50_ms, loop.peak_rss_mb);
  if (ctx.tracer->enabled()) {
    ProbeInputs inputs;
    inputs.table = &table;
    inputs.session = &session;
    inputs.measured = {{"serve.hit_ms", median(hit), "ms"},
                       {"serve.miss_ms", median(miss), "ms"}};
    out.per_layer = inputs.measured;
    run_probes(ctx, inputs, out);
  }
  return out;
}

}  // namespace pb

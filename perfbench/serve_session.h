// An in-process pevpmd (serve::Server on a Unix socket under .bench_out/)
// driven by a closed loop: each client connection sends its next request
// only after the reply to the previous one, as `pevpm --server` does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mpibench/table.h"

namespace pb {

enum class RequestKind : std::uint8_t { kHit, kMiss };

/// One status-200 reply. Kept small: a run records every reply, and the
/// records must not move the peak RSS the benchmark reports.
struct Reply {
  float latency_ms = 0.0F;
  float done_s = 0.0F;  ///< completion time since the loop started
  RequestKind kind = RequestKind::kHit;
};

/// A sampled request, named by its position in a client's sequence, and
/// the server's summary for it.
struct Sample {
  int client = 0;
  std::uint64_t index = 0;
  std::string summary;
};

struct LoopResult {
  std::vector<Reply> replies;
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-200 replies and transport errors
  std::vector<std::string> errors;
  double elapsed_s = 0.0;
  /// Peak RSS when the loop ended, before its records were merged.
  double peak_rss_mb = 0.0;
};

/// The server's artifact-cache counters, from a `stats` frame.
struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class ServeSession {
 public:
  /// Starts the server (`threads` workers) on a table that requests reuse.
  ServeSession(const mpibench::DistributionTable& table, int threads,
               std::uint64_t seed, Tracer& tracer);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Sends one request per model variant so the cache holds them.
  void warm();
  /// Runs `clients` closed-loop connections in whole rounds of ten
  /// requests (nine cache hits, one new table text) until `seconds` pass.
  /// Every `sample_every`-th request of a client is kept for checking;
  /// a stride coprime with ten samples every position of the round.
  LoopResult run(int clients, double seconds, int sample_every);
  /// Median round trip of `count` ping frames, in microseconds.
  double ping_us(int count);
  /// Asks the server for its artifact-cache counters.
  CacheCounts cache_counts();

  /// The JSON frame for one request (exposed for the JSON probe).
  [[nodiscard]] std::string frame_text(int client, std::uint64_t index) const;
  /// Evaluates each sample's request locally through core/request and
  /// returns one error per summary that differs from the server's.
  [[nodiscard]] std::vector<std::string> verify(
      const std::vector<Sample>& samples) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pb

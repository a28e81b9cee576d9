// The cluster network: per-node NIC links, a chain of switches joined by
// stacking trunks, and hop-by-hop packet forwarding with store-and-forward
// switch latency — the Perseus topology from the paper.
//
// The forwarding hot path is allocation-free in steady state: routes are
// computed once per (src, dst) pair and reused as spans into per-pair
// arrays, and each in-flight packet is tracked by a pool-allocated transit
// record addressed by index, so the per-hop callbacks capture only
// (network, partition, index) and fit every small-object buffer on the way
// down.
//
// The network is always built over a des::PartitionSet. A one-partition
// set is the sequential engine: every link lives on its sole engine, no
// boundaries exist and no posts happen. Switch-partitioned mode (the
// conservative parallel engine) uses one partition per switch — its node
// NICs, its forwarding fabric, and the trunk to its upper neighbour — each
// owning a des::Engine, a transit pool and a route cache. A frame whose
// next hop belongs to another partition is resolved at submit time on the
// last link this partition owns (Link::submit_resolved) and the
// continuation is posted through the PartitionSet mailbox, arriving at
// least min-link-latency + switch-latency later — the lookahead
// (ClusterParams::lookahead()).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/calibration.h"
#include "net/link.h"
#include "net/packet.h"

namespace net {

class Network {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  using DropFn = std::function<void(const Packet&)>;

  /// Network over a conservative parallel engine set. The set must have
  /// either one partition (sequential semantics, any topology) or exactly
  /// params.switch_count() partitions (switch-partitioned mode), whose
  /// lookahead must not exceed params.safe_lookahead(); otherwise throws
  /// std::invalid_argument.
  Network(des::PartitionSet& sim, ClusterParams params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }
  [[nodiscard]] int nodes() const noexcept { return params_.nodes; }
  [[nodiscard]] int partitions() const noexcept {
    return static_cast<int>(parts_.size());
  }
  [[nodiscard]] units::PartitionId partition_of_node(int node) const noexcept {
    return units::PartitionId{
        parts_.size() == 1 ? 0 : params_.switch_of(node)};
  }

  /// Sends a packet from packet.src_node to packet.dst_node. `deliver`
  /// fires at arrival at the destination host; `drop` fires (at the drop
  /// instant) if any hop's queue overflows. src == dst is not routed here
  /// (intra-node traffic uses the SMP channel in the MPI layer). In
  /// partitioned mode the call must come from the source node's partition
  /// context; `deliver` then runs in the destination node's partition.
  void send(const Packet& packet, DeliverFn deliver, DropFn drop);

  /// Number of links a src->dst packet traverses (NICs + trunks). Computed
  /// arithmetically; no route is materialised.
  [[nodiscard]] int hop_count(int src_node, int dst_node) const;

  /// Builds a fresh route (link sequence) for src -> dst. Exposed for
  /// tests; the forwarding path uses the cached route_span() instead.
  [[nodiscard]] std::vector<Link*> route(int src_node, int dst_node) const;

  /// Cached route for src -> dst: computed on first use, stable for the
  /// lifetime of the Network. Reads the source partition's cache.
  [[nodiscard]] std::span<Link* const> route_span(int src_node, int dst_node) {
    return route_span(partition_of_node(src_node).value(), src_node, dst_node);
  }

  // Link accessors for statistics and tests.
  [[nodiscard]] Link& nic_tx(int node) { return *nic_tx_.at(node); }
  [[nodiscard]] Link& nic_rx(int node) { return *nic_rx_.at(node); }
  [[nodiscard]] Link& fabric(int switch_index) {
    return *fabric_.at(switch_index);
  }
  /// Shared (half-duplex) stacking trunk between switch s and s+1.
  [[nodiscard]] Link& trunk(int lower_switch);

  [[nodiscard]] std::uint64_t total_drops() const noexcept;
  /// Packets lost to injected faults across all links (0 when fault
  /// injection is disabled).
  [[nodiscard]] std::uint64_t total_faults() const noexcept;
  [[nodiscard]] std::string stats_csv() const;
  void reset_stats() noexcept;

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One in-flight packet traversing the hops its current partition owns.
  /// Pool-allocated and addressed by (partition, index) so per-hop
  /// callbacks capture 16 bytes.
  struct Transit {
    Packet packet{};
    std::span<Link* const> path{};
    std::uint32_t hop = 0;
    std::uint32_t next_free = kNil;
    DeliverFn deliver;
    DropFn drop;
  };

  /// Lazily-filled per-(src,dst) route storage; `len == 0` means unfilled
  /// (every valid route has at least 3 links).
  struct CachedRoute {
    std::unique_ptr<Link*[]> links;
    std::uint32_t len = 0;
  };

  /// Per-partition forwarding state; each partition touches only its own,
  /// so the window bodies share nothing but the immutable link graph.
  /// Held in a deque: the inner deque's move is not noexcept, which would
  /// push vector growth onto the deleted copy path.
  struct PartitionLocal {
    std::vector<CachedRoute> route_cache;  ///< src * nodes + dst
    std::deque<Transit> transits;  ///< stable addresses while growing
    std::uint32_t transit_free = kNil;
  };

  void build_links();
  [[nodiscard]] des::Engine& engine_for(units::PartitionId part) const {
    return sim_.engine(part);
  }

  [[nodiscard]] std::span<Link* const> route_span(int part, int src_node,
                                                  int dst_node);
  [[nodiscard]] std::uint32_t acquire_transit(std::uint32_t part);
  void release_transit(std::uint32_t part, std::uint32_t index) noexcept;
  [[nodiscard]] Transit& transit(std::uint32_t part,
                                 std::uint32_t index) noexcept {
    return parts_[part].transits[index];
  }

  /// Submits the transit's packet to the link at its current hop; the
  /// arrival callback advances the hop (after the store-and-forward switch
  /// latency) until the final link delivers to the destination host, or a
  /// partition boundary hands the continuation to the neighbour.
  void forward_hop(std::uint32_t part, std::uint32_t index);
  /// Re-enters a packet in partition `part` at `hop` of its route after a
  /// cross-partition handoff (runs in `part`'s context).
  void resume_transit(std::uint32_t part, std::uint32_t hop,
                      const Packet& packet, DeliverFn deliver, DropFn drop);

  void check_route_args(int src_node, int dst_node) const;

  des::PartitionSet& sim_;
  ClusterParams params_;
  std::vector<std::unique_ptr<Link>> nic_tx_;
  std::vector<std::unique_ptr<Link>> nic_rx_;
  /// One shared forwarding fabric per switch; every frame entering the
  /// switch crosses it once.
  std::vector<std::unique_ptr<Link>> fabric_;
  /// trunk_[s] joins switch s and s+1, owned by partition s (both
  /// directions: the 510T stacking matrix behaves as a shared bus — both
  /// directions contend for the same 2.1 Gbit/s, which is what makes the
  /// paper's 24 x 84.25 Mbit/s = 2.02 Gbit/s offered load saturate it).
  std::vector<std::unique_ptr<Link>> trunk_;

  std::deque<PartitionLocal> parts_;
};

}  // namespace net

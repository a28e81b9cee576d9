#include "net/network.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace net {

Network::Network(des::PartitionSet& sim, ClusterParams params)
    : sim_{sim}, params_{std::move(params)} {
  const int k = sim.partitions();
  if (k != 1 && k != params_.switch_count()) {
    throw std::invalid_argument{
        "Network: partition count must be 1 or the switch count"};
  }
  // Compare against the derived bound, not lookahead(): a config override
  // must not be able to vouch for itself.
  if (k > 1 && sim.lookahead() > params_.safe_lookahead()) {
    throw std::invalid_argument{
        "Network: engine lookahead exceeds the topology's safe bound"};
  }
  parts_.resize(k);
  build_links();
}

void Network::build_links() {
  const int k = partitions();
  nic_tx_.reserve(params_.nodes);
  nic_rx_.reserve(params_.nodes);
  for (int n = 0; n < params_.nodes; ++n) {
    const units::PartitionId part = partition_of_node(n);
    nic_tx_.push_back(std::make_unique<Link>(engine_for(part),
                                             "nic_tx." + std::to_string(n),
                                             params_.nic, part));
    nic_rx_.push_back(std::make_unique<Link>(engine_for(part),
                                             "nic_rx." + std::to_string(n),
                                             params_.nic, part));
  }
  const int switches = params_.switch_count();
  for (int s = 0; s < switches; ++s) {
    const units::PartitionId part{k == 1 ? 0 : s};
    fabric_.push_back(std::make_unique<Link>(engine_for(part),
                                             "fabric." + std::to_string(s),
                                             params_.fabric, part));
  }
  for (int s = 0; s + 1 < switches; ++s) {
    // The half-duplex trunk is owned by the lower switch's partition; the
    // descending direction reaches it through a boundary handoff, so every
    // submit still comes from the owner's context.
    const units::PartitionId part{k == 1 ? 0 : s};
    trunk_.push_back(std::make_unique<Link>(engine_for(part),
                                            "trunk." + std::to_string(s),
                                            params_.trunk, part));
  }
  for (PartitionLocal& part : parts_) {
    part.route_cache.resize(static_cast<std::size_t>(params_.nodes) *
                            params_.nodes);
  }

  // Fault injection: every link gets an independent RNG stream drawn from
  // the master seed in construction order, which is deterministic (and
  // identical across partition counts), so a fixed seed reproduces the
  // exact same loss pattern. With injection disabled no model is installed
  // and the fast path is untouched.
  if (params_.fault.enabled()) {
    stats::Rng seeder{params_.fault.seed};
    const auto install = [&](const std::unique_ptr<Link>& link) {
      link->install_fault_model(
          std::make_unique<FaultModel>(params_.fault, seeder()));
    };
    for (const auto& link : nic_tx_) install(link);
    for (const auto& link : nic_rx_) install(link);
    for (const auto& link : fabric_) install(link);
    for (const auto& link : trunk_) install(link);
  }
}

Link& Network::trunk(int lower_switch) { return *trunk_.at(lower_switch); }

void Network::check_route_args(int src_node, int dst_node) const {
  if (src_node < 0 || src_node >= params_.nodes || dst_node < 0 ||
      dst_node >= params_.nodes) {
    throw std::out_of_range{"Network::route: node out of range"};
  }
  if (src_node == dst_node) {
    throw std::invalid_argument{
        "Network::route: intra-node traffic does not use the network"};
  }
}

std::vector<Link*> Network::route(int src_node, int dst_node) const {
  check_route_args(src_node, dst_node);
  std::vector<Link*> path;
  path.push_back(nic_tx_[src_node].get());
  const int s_src = params_.switch_of(src_node);
  const int s_dst = params_.switch_of(dst_node);
  // The forwarding fabric is charged once, where the frame enters the stack
  // from a node port; transit through further matrix cards is covered by
  // the trunk links themselves.
  path.push_back(fabric_[s_src].get());
  for (int s = s_src; s < s_dst; ++s) path.push_back(trunk_[s].get());
  for (int s = s_src; s > s_dst; --s) path.push_back(trunk_[s - 1].get());
  path.push_back(nic_rx_[dst_node].get());
  return path;
}

std::span<Link* const> Network::route_span(int part, int src_node,
                                           int dst_node) {
  check_route_args(src_node, dst_node);
  CachedRoute& cached =
      parts_[part]
          .route_cache[static_cast<std::size_t>(src_node) * params_.nodes +
                       dst_node];
  if (cached.len == 0) {
    const std::vector<Link*> path = route(src_node, dst_node);
    cached.links = std::make_unique<Link*[]>(path.size());
    std::copy(path.begin(), path.end(), cached.links.get());
    cached.len = static_cast<std::uint32_t>(path.size());
  }
  return {cached.links.get(), cached.len};
}

int Network::hop_count(int src_node, int dst_node) const {
  check_route_args(src_node, dst_node);
  // nic_tx + entry fabric + one trunk per switch boundary crossed + nic_rx.
  const int s_src = params_.switch_of(src_node);
  const int s_dst = params_.switch_of(dst_node);
  const int trunks = s_src < s_dst ? s_dst - s_src : s_src - s_dst;
  return 3 + trunks;
}

std::uint32_t Network::acquire_transit(std::uint32_t part) {
  PartitionLocal& local = parts_[part];
  if (local.transit_free != kNil) {
    const std::uint32_t index = local.transit_free;
    local.transit_free = local.transits[index].next_free;
    return index;
  }
  local.transits.emplace_back();
  return static_cast<std::uint32_t>(local.transits.size() - 1);
}

void Network::release_transit(std::uint32_t part,
                              std::uint32_t index) noexcept {
  PartitionLocal& local = parts_[part];
  Transit& record = local.transits[index];
  record.deliver = nullptr;
  record.drop = nullptr;
  record.path = {};
  record.next_free = local.transit_free;
  local.transit_free = index;
}

void Network::send(const Packet& packet, DeliverFn deliver, DropFn drop) {
  const std::uint32_t part =
      static_cast<std::uint32_t>(partition_of_node(packet.src_node).value());
  const std::span<Link* const> path =
      route_span(static_cast<int>(part), packet.src_node, packet.dst_node);
  const std::uint32_t index = acquire_transit(part);
  Transit& record = transit(part, index);
  record.packet = packet;
  record.path = path;
  record.hop = 0;
  record.deliver = std::move(deliver);
  record.drop = std::move(drop);
  forward_hop(part, index);
}

void Network::resume_transit(std::uint32_t part, std::uint32_t hop,
                             const Packet& packet, DeliverFn deliver,
                             DropFn drop) {
  const std::span<Link* const> path =
      route_span(static_cast<int>(part), packet.src_node, packet.dst_node);
  const std::uint32_t index = acquire_transit(part);
  Transit& record = transit(part, index);
  record.packet = packet;
  record.path = path;
  record.hop = hop;
  record.deliver = std::move(deliver);
  record.drop = std::move(drop);
  forward_hop(part, index);
}

// LINT:hot-path begin (per-packet forwarding: transit records come from the
// per-partition pool, callbacks are moved, cross-partition continuations
// ride the wait-free mailbox ring; nothing allocates; enforced by
// tools/repro_lint)
void Network::forward_hop(std::uint32_t part, std::uint32_t index) {
  Transit& record = transit(part, index);
  Link* link = record.path[record.hop];
  if (record.hop + 1 == record.path.size()) {
    // Final hop: hand the user's callbacks to the link and retire the
    // record before submit so the pool slot can be reused immediately.
    const Packet packet = record.packet;
    DeliverFn deliver = std::move(record.deliver);
    DropFn drop = std::move(record.drop);
    release_transit(part, index);
    link->submit(packet, std::move(deliver), std::move(drop));
    return;
  }
  Link* next = record.path[record.hop + 1];
  if (next->partition().value() != static_cast<int>(part)) {
    // Partition boundary: resolve this link's outcome at the submit instant
    // (queueing, serialisation, fault decision — all sender-side state) and
    // hand the continuation to the neighbouring partition. The continuation
    // lands at arrival + switch latency, i.e. at least one link latency +
    // switch latency ahead of now: the lookahead.
    const Link::Resolved resolved = link->submit_resolved(record.packet);
    const Packet packet = record.packet;
    DeliverFn deliver = std::move(record.deliver);
    DropFn drop = std::move(record.drop);
    const std::uint32_t next_hop = record.hop + 1;
    release_transit(part, index);
    if (resolved.outcome == Link::SubmitOutcome::kDropped) {
      if (drop) drop(packet);
      return;
    }
    if (resolved.outcome == Link::SubmitOutcome::kLost) {
      // The loss happened on a link this partition owns; the drop fires
      // here, at the would-be arrival instant, exactly as sequentially.
      link->engine().schedule_at(resolved.arrive,
                                 [packet, drop = std::move(drop)] {
                                   if (drop) drop(packet);
                                 });
      return;
    }
    const std::uint32_t to =
        static_cast<std::uint32_t>(next->partition().value());
    const units::PartitionId from_id{static_cast<int>(part)};
    const units::PartitionId to_id{static_cast<int>(to)};
    const des::SimTime at = resolved.arrive + params_.switch_latency;
    if (drop) {
      // Rare oversized capture (user-supplied drop callback crossing a
      // boundary); SmallFn falls back to the heap for it.
      sim_.post(from_id, to_id, at,
                [this, to, next_hop, packet, deliver = std::move(deliver),
                 drop = std::move(drop)]() mutable {
                  resume_transit(to, next_hop, packet, std::move(deliver),
                                 std::move(drop));
                });
    } else {
      sim_.post(from_id, to_id, at,
                [this, to, next_hop, packet,
                 deliver = std::move(deliver)]() mutable {
                  resume_transit(to, next_hop, packet, std::move(deliver),
                                 nullptr);
                });
    }
    return;
  }
  // Intermediate hop within the partition: arrival advances the record to
  // the next link after the store-and-forward switch latency. Exactly one
  // of the two callbacks fires per submit, so the record is released
  // exactly once.
  link->submit(
      record.packet,
      [this, part, index](const Packet&) {
        Transit& arrived = transit(part, index);
        arrived.path[arrived.hop]->engine().schedule_in(
            params_.switch_latency, [this, part, index] {
              ++transit(part, index).hop;
              forward_hop(part, index);
            });
      },
      [this, part, index](const Packet& dropped) {
        DropFn drop = std::move(transit(part, index).drop);
        release_transit(part, index);
        if (drop) drop(dropped);
      });
}
// LINT:hot-path end

std::uint64_t Network::total_drops() const noexcept {
  std::uint64_t drops = 0;
  for (const auto& link : nic_tx_) drops += link->packets_dropped();
  for (const auto& link : nic_rx_) drops += link->packets_dropped();
  for (const auto& link : fabric_) drops += link->packets_dropped();
  for (const auto& link : trunk_) drops += link->packets_dropped();
  return drops;
}

std::uint64_t Network::total_faults() const noexcept {
  std::uint64_t lost = 0;
  for (const auto& link : nic_tx_) lost += link->packets_lost();
  for (const auto& link : nic_rx_) lost += link->packets_lost();
  for (const auto& link : fabric_) lost += link->packets_lost();
  for (const auto& link : trunk_) lost += link->packets_lost();
  return lost;
}

std::string Network::stats_csv() const {
  std::ostringstream os;
  os << "link,packets,bytes,drops,lost,peak_backlog,busy_us\n";
  const auto row = [&os](const Link& link) {
    os << link.name() << ',' << link.packets_sent() << ','
       << link.bytes_sent().count() << ',' << link.packets_dropped() << ','
       << link.packets_lost() << ',' << link.peak_backlog().count() << ','
       << des::to_micros(link.busy_time()) << '\n';
  };
  for (const auto& link : nic_tx_) row(*link);
  for (const auto& link : nic_rx_) row(*link);
  for (const auto& link : fabric_) row(*link);
  for (const auto& link : trunk_) row(*link);
  return os.str();
}

void Network::reset_stats() noexcept {
  for (const auto& link : nic_tx_) link->reset_stats();
  for (const auto& link : nic_rx_) link->reset_stats();
  for (const auto& link : fabric_) link->reset_stats();
  for (const auto& link : trunk_) link->reset_stats();
}

}  // namespace net

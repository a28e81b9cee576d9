#include "net/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace net {

Transport::Transport(des::PartitionSet& sim, Network& network)
    : sim_{sim},
      network_{network},
      tcp_{network.params().tcp},
      wire_{network.params().wire} {
  if (network.partitions() != sim.partitions()) {
    throw std::invalid_argument{
        "Transport: network was built over a different partition set"};
  }
  shards_.resize(static_cast<std::size_t>(sim.partitions()));
}

Transport::Sender& Transport::sender(std::uint64_t stream, int src, int dst) {
  Shard& shard = shards_[static_cast<std::size_t>(partition_of(src).value())];
  auto [it, inserted] = shard.senders.try_emplace(stream);
  Sender& conn = it->second;
  if (inserted) {
    conn.id = stream;
    conn.src = src;
    conn.dst = dst;
    conn.cwnd = static_cast<double>(tcp_.initial_cwnd);
    conn.rto = tcp_.rto_initial;
  } else if (conn.src != src || conn.dst != dst) {
    throw std::invalid_argument{
        "Transport::send: stream rebound to new endpoints"};
  }
  return conn;
}

Transport::Sender& Transport::sender_of(const Packet& ack_packet) {
  // An ACK flows dst -> src, so its destination node is the sender's host.
  Shard& shard = shards_[static_cast<std::size_t>(
      partition_of(ack_packet.dst_node).value())];
  const auto it = shard.senders.find(ack_packet.conn);
  if (it == shard.senders.end()) {
    throw std::logic_error{"Transport: ACK for unknown stream"};
  }
  return it->second;
}

Transport::Receiver& Transport::receiver_of(const Packet& data_packet) {
  Shard& shard = shards_[static_cast<std::size_t>(
      partition_of(data_packet.dst_node).value())];
  auto [it, inserted] = shard.receivers.try_emplace(data_packet.conn);
  Receiver& conn = it->second;
  if (inserted) {
    conn.id = data_packet.conn;
    conn.src = data_packet.src_node;
    conn.dst = data_packet.dst_node;
  }
  return conn;
}

void Transport::register_message(std::uint64_t stream, int src, int dst,
                                 SeqNo end, DeliveredFn cb) {
  Shard& shard = shards_[static_cast<std::size_t>(partition_of(dst).value())];
  auto [it, inserted] = shard.receivers.try_emplace(stream);
  Receiver& conn = it->second;
  if (inserted) {
    conn.id = stream;
    conn.src = src;
    conn.dst = dst;
  }
  conn.pending.emplace_back(end, std::move(cb));
  // Registration always precedes the message's own data (it travels one
  // lookahead ahead of an end-to-end path that is strictly longer), so this
  // drain only matters for messages whose predecessors already advanced
  // rcv_nxt past this end — which cannot happen either; it is a guard, not
  // a code path.
  while (!conn.pending.empty() && conn.pending.front().first <= conn.rcv_nxt) {
    DeliveredFn ready = std::move(conn.pending.front().second);
    conn.pending.pop_front();
    ++shard.messages_delivered;
    if (ready) ready();
  }
}

std::uint64_t Transport::next_packet_id(units::PartitionId part) noexcept {
  return shards_[static_cast<std::size_t>(part.value())].next_packet_id++;
}

void Transport::send(std::uint64_t stream, int src_node, int dst_node,
                     Bytes bytes, DeliveredFn on_delivered) {
  if (bytes == Bytes{}) {
    throw std::invalid_argument{"Transport::send: zero-byte message"};
  }
  if (src_node == dst_node) {
    throw std::invalid_argument{"Transport::send: src == dst"};
  }
  Sender& conn = sender(stream, src_node, dst_node);
  conn.stream_end += bytes;
  const units::PartitionId sp = partition_of(src_node);
  const units::PartitionId dp = partition_of(dst_node);
  if (sp == dp) {
    register_message(stream, src_node, dst_node, conn.stream_end,
                     std::move(on_delivered));
  } else {
    // The receiver half lives in the destination partition: ship the
    // (end offset, callback) pair through the mailbox one lookahead out.
    // It beats the first data byte — see the class comment.
    const SeqNo end = conn.stream_end;
    sim_.post(sp, dp, engine_of(src_node).now() + sim_.lookahead(),
              [this, stream, src_node, dst_node, end,
               cb = std::move(on_delivered)]() mutable {
                register_message(stream, src_node, dst_node, end,
                                 std::move(cb));
              });
  }
  pump(conn);
}

Bytes Transport::window_bytes(const Sender& conn) const noexcept {
  const Bytes cwnd_bytes{
      static_cast<std::uint64_t>(conn.cwnd * wire_.mss().to_double())};
  return std::min(cwnd_bytes, tcp_.recv_window);
}

void Transport::pump(Sender& conn) {
  while (conn.snd_nxt < conn.stream_end) {
    const Bytes in_flight = conn.snd_nxt - conn.snd_una;
    const Bytes window = window_bytes(conn);
    if (in_flight >= window) break;
    const Bytes len = std::min({wire_.mss(), conn.stream_end - conn.snd_nxt,
                                window - in_flight});
    transmit_segment(conn, conn.snd_nxt, len);
    conn.snd_nxt += len;
  }
  if (conn.snd_una < conn.snd_nxt && !conn.rto_timer.valid()) arm_rto(conn);
}

void Transport::transmit_segment(Sender& conn, SeqNo seq, Bytes len) {
  const units::PartitionId part = partition_of(conn.src);
  Packet packet;
  packet.id = next_packet_id(part);
  packet.kind = PacketKind::kData;
  packet.src_node = conn.src;
  packet.dst_node = conn.dst;
  packet.conn = conn.id;
  packet.seq = seq;
  packet.payload = len;
  packet.wire_bytes = wire_.segment_wire_bytes(len);
  ++shards_[static_cast<std::size_t>(part.value())].segments_sent;
  // The delivery callback runs in the destination partition; it captures
  // no sender state — the packet's conn field resolves the receiver half
  // there.
  network_.send(
      packet, [this](const Packet& arrived) { on_data(arrived); },
      /*drop=*/nullptr);  // loss is detected via ACKs / the RTO timer
}

void Transport::send_ack(Receiver& conn) {
  Packet packet;
  packet.id = next_packet_id(partition_of(conn.dst));
  packet.kind = PacketKind::kAck;
  packet.src_node = conn.dst;  // ACKs flow dst -> src
  packet.dst_node = conn.src;
  packet.conn = conn.id;
  packet.seq = conn.rcv_nxt;
  packet.payload = Bytes{};
  packet.wire_bytes = wire_.ack_wire_bytes();
  network_.send(
      packet, [this](const Packet& arrived) { on_ack(arrived); },
      /*drop=*/nullptr);  // a lost ACK is covered by later cumulative ACKs
}

void Transport::on_data(const Packet& packet) {
  Receiver& conn = receiver_of(packet);
  Shard& shard = shards_[static_cast<std::size_t>(
      partition_of(packet.dst_node).value())];
  const SeqNo seg_end = packet.seq + packet.payload;
  if (seg_end <= conn.rcv_nxt) {
    // Duplicate of already-received data (e.g. a spurious retransmit):
    // re-ACK so the sender can make progress.
    send_ack(conn);
    return;
  }
  if (packet.seq <= conn.rcv_nxt) {
    conn.rcv_nxt = seg_end;
    // Absorb any now-contiguous out-of-order segments.
    for (auto it = conn.out_of_order.begin();
         it != conn.out_of_order.end() && it->first <= conn.rcv_nxt;) {
      conn.rcv_nxt = std::max(conn.rcv_nxt, it->first + it->second);
      it = conn.out_of_order.erase(it);
    }
  } else {
    conn.out_of_order.insert({packet.seq, packet.payload});
  }
  send_ack(conn);
  // Deliver every message whose final byte is now in order.
  while (!conn.pending.empty() && conn.pending.front().first <= conn.rcv_nxt) {
    DeliveredFn cb = std::move(conn.pending.front().second);
    conn.pending.pop_front();
    ++shard.messages_delivered;
    if (cb) cb();
  }
}

void Transport::on_ack(const Packet& packet) {
  Sender& conn = sender_of(packet);
  Shard& shard = shards_[static_cast<std::size_t>(
      partition_of(packet.dst_node).value())];
  const SeqNo ackno = packet.seq;
  if (ackno > conn.snd_una) {
    conn.snd_una = ackno;
    conn.dupacks = 0;
    if (conn.in_recovery && ackno >= conn.recover_end) {
      conn.in_recovery = false;
    } else if (conn.in_recovery) {
      // NewReno partial ACK: the next hole is known lost — resend it now
      // rather than stalling until the RTO fires.
      const Bytes len =
          std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
      ++shard.retransmits;
      trace_event(conn, "partial_ack_retransmit seq=" +
                            std::to_string(conn.snd_una.value()));
      transmit_segment(conn, conn.snd_una, len);
    }
    if (!conn.in_recovery) {
      if (conn.cwnd < conn.ssthresh) {
        conn.cwnd += 1.0;  // slow start
      } else {
        conn.cwnd += 1.0 / conn.cwnd;  // congestion avoidance
      }
    }
    disarm_rto(conn);
    conn.rto = tcp_.rto_initial;  // fresh ACK: reset backoff
    if (conn.snd_una < conn.snd_nxt) arm_rto(conn);
    pump(conn);
    return;
  }
  if (conn.snd_una < conn.snd_nxt && ackno == conn.snd_una) {
    ++conn.dupacks;
    if (conn.dupacks == tcp_.dupack_threshold && !conn.in_recovery) {
      // Fast retransmit: resend the missing head segment, halve the window.
      const double flight =
          (conn.snd_nxt - conn.snd_una).to_double() / wire_.mss().to_double();
      conn.ssthresh = std::max(flight / 2.0, 2.0);
      conn.cwnd = conn.ssthresh;
      conn.in_recovery = true;
      conn.recover_end = conn.snd_nxt;
      const Bytes len =
          std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
      ++shard.retransmits;
      ++shard.fast_retransmits;
      trace_event(conn, "fast_retransmit seq=" +
                            std::to_string(conn.snd_una.value()));
      transmit_segment(conn, conn.snd_una, len);
    }
  }
}

void Transport::on_rto(std::uint64_t stream, int src_node) {
  Shard& shard =
      shards_[static_cast<std::size_t>(partition_of(src_node).value())];
  const auto it = shard.senders.find(stream);
  if (it == shard.senders.end()) return;
  Sender& conn = it->second;
  conn.rto_timer = {};
  if (conn.snd_una >= conn.snd_nxt) return;  // everything got acknowledged
  ++shard.timeouts;
  ++shard.retransmits;
  const double flight =
      (conn.snd_nxt - conn.snd_una).to_double() / wire_.mss().to_double();
  conn.ssthresh = std::max(flight / 2.0, 2.0);
  conn.cwnd = 1.0;
  conn.dupacks = 0;
  conn.in_recovery = false;
  conn.rto = std::min(conn.rto * 2, tcp_.rto_max);  // exponential backoff
  trace_event(conn,
              "rto_retransmit seq=" + std::to_string(conn.snd_una.value()) +
                  " next_rto_ms=" + std::to_string(des::to_millis(conn.rto)));
  const Bytes len = std::min(wire_.mss(), conn.snd_nxt - conn.snd_una);
  transmit_segment(conn, conn.snd_una, len);
  arm_rto(conn);
}

void Transport::trace_event(const Sender& conn, std::string detail) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->record(engine_of(conn.src).now(), trace::Category::kTransport,
                  static_cast<std::int64_t>(conn.id), std::move(detail));
}

void Transport::arm_rto(Sender& conn) {
  disarm_rto(conn);
  conn.rto_timer = engine_of(conn.src).schedule_in(
      std::max(conn.rto, tcp_.rto_min),
      [this, stream = conn.id, src = conn.src] { on_rto(stream, src); });
}

void Transport::disarm_rto(Sender& conn) {
  if (conn.rto_timer.valid()) {
    engine_of(conn.src).cancel(conn.rto_timer);
    conn.rto_timer = {};
  }
}

std::uint64_t Transport::segments_sent() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.segments_sent;
  return total;
}

std::uint64_t Transport::retransmits() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.retransmits;
  return total;
}

std::uint64_t Transport::fast_retransmits() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.fast_retransmits;
  return total;
}

std::uint64_t Transport::timeouts() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.timeouts;
  return total;
}

std::uint64_t Transport::messages_delivered() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.messages_delivered;
  return total;
}

void Transport::reset_stats() noexcept {
  for (Shard& shard : shards_) {
    shard.segments_sent = 0;
    shard.retransmits = 0;
    shard.fast_retransmits = 0;
    shard.timeouts = 0;
    shard.messages_delivered = 0;
  }
}

}  // namespace net

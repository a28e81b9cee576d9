// TCP-lite reliable byte-stream transport over the packet network.
//
// MPICH 1.2 on Perseus ran over kernel TCP; the paper attributes the
// outliers in the Figure 3/4 distributions to TCP retransmission timeouts
// after congestion loss. This module reproduces that mechanism with a
// deliberately reduced TCP: per-(src,dst) byte streams, MSS segmentation,
// cumulative ACKs, a receive window, slow start + AIMD congestion control,
// fast retransmit on triple duplicate ACKs, and an RTO timer with
// exponential backoff (200 ms floor, as in Linux 2.2). What is left out
// (SACK, Nagle, delayed ACKs, fast-recovery inflation) does not change
// where time goes at this fidelity.
//
// Messages are byte counts; delivery callbacks fire when the last stream
// byte of a message arrives in order at the destination host.
//
// The transport runs over the PartitionSet its Network was built on. A
// connection's sender half (sequence numbers, congestion state, the RTO
// timer) is pinned to the source node's partition and its receiver half
// (reassembly, pending deliveries) to the destination node's, matching
// where the network delivers data and ACK packets. The only
// sender-to-receiver control transfer outside the packet path —
// registering a message's end offset and delivery callback — rides the
// PartitionSet mailbox one lookahead ahead, which always beats the first
// data byte (end-to-end is at least two NIC latencies plus a switch hop).
// With one partition both halves live in shard 0 and every path is the
// sequential one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/network.h"
#include "trace/trace.h"

namespace net {

class Transport {
 public:
  using DeliveredFn = std::function<void()>;

  /// `network` must be built over a set with the same partition count as
  /// `sim`; otherwise throws std::invalid_argument.
  Transport(des::PartitionSet& sim, Network& network);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Attaches a tracer (or detaches, with nullptr). While attached and
  /// enabled, every retransmission-related event — RTO firings with their
  /// backed-off interval, fast retransmits, NewReno partial-ACK resends —
  /// is recorded under Category::kTransport with the connection id as
  /// subject, so retransmission forensics can be replayed offline.
  /// (Tracer::record is internally synchronised, so partitions may record
  /// concurrently.)
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Queues `bytes` (> 0) on stream `stream` from src to dst. A stream is
  /// one TCP-lite connection; MPICH 1.2 (ch_p4) opened one socket per
  /// process pair, so the MPI layer passes a per-rank-pair stream id. All
  /// streams between two nodes still contend for the same NIC and trunk
  /// links. `on_delivered` runs, in engine context (the destination
  /// partition's, when partitioned), when the final byte arrives in order
  /// at `dst_node`. Messages on one stream are delivered in submission
  /// order. A stream's (src, dst) binding must not change. In partitioned
  /// mode the call must come from the source node's partition context.
  void send(std::uint64_t stream, int src_node, int dst_node, Bytes bytes,
            DeliveredFn on_delivered);

  // Lifetime statistics (summed over partitions; read when quiescent).
  [[nodiscard]] std::uint64_t segments_sent() const noexcept;
  [[nodiscard]] std::uint64_t retransmits() const noexcept;
  [[nodiscard]] std::uint64_t fast_retransmits() const noexcept;
  [[nodiscard]] std::uint64_t timeouts() const noexcept;
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept;
  void reset_stats() noexcept;

 private:
  /// Sender half of a connection, owned by the source node's partition.
  struct Sender {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
    SeqNo snd_una{};              ///< oldest unacknowledged byte
    SeqNo snd_nxt{};              ///< next byte to transmit
    SeqNo stream_end{};           ///< total bytes submitted
    double cwnd = 2.0;            ///< congestion window, segments
    double ssthresh = 64.0;       ///< slow-start threshold, segments
    int dupacks = 0;
    bool in_recovery = false;
    SeqNo recover_end{};
    des::Duration rto{};
    des::Engine::EventId rto_timer{};
  };

  /// Receiver half, owned by the destination node's partition.
  struct Receiver {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
    SeqNo rcv_nxt{};
    std::map<SeqNo, Bytes> out_of_order;          ///< start -> length
    std::deque<std::pair<SeqNo, DeliveredFn>> pending;  ///< (end, cb)
  };

  /// Per-partition transport state; every field is touched only from its
  /// partition's execution context.
  struct Shard {
    std::map<std::uint64_t, Sender> senders;
    std::map<std::uint64_t, Receiver> receivers;
    std::uint64_t next_packet_id = 1;
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t messages_delivered = 0;
  };

  [[nodiscard]] units::PartitionId partition_of(int node) const noexcept {
    return network_.partition_of_node(node);
  }
  [[nodiscard]] des::Engine& engine_of(int node) const {
    return sim_.engine(partition_of(node));
  }
  [[nodiscard]] Sender& sender(std::uint64_t stream, int src, int dst);
  [[nodiscard]] Sender& sender_of(const Packet& ack_packet);
  [[nodiscard]] Receiver& receiver_of(const Packet& data_packet);
  /// Creates/locates the receiver half and appends one pending message.
  /// Runs in the destination partition's context.
  void register_message(std::uint64_t stream, int src, int dst, SeqNo end,
                        DeliveredFn cb);
  [[nodiscard]] std::uint64_t next_packet_id(units::PartitionId part) noexcept;

  void pump(Sender& conn);
  void transmit_segment(Sender& conn, SeqNo seq, Bytes len);
  void send_ack(Receiver& conn);
  void on_data(const Packet& packet);
  void on_ack(const Packet& packet);
  void on_rto(std::uint64_t stream, int src_node);
  void arm_rto(Sender& conn);
  void disarm_rto(Sender& conn);
  [[nodiscard]] Bytes window_bytes(const Sender& conn) const noexcept;
  void trace_event(const Sender& conn, std::string detail);

  des::PartitionSet& sim_;
  Network& network_;
  const TcpParams tcp_;
  const WireFormat wire_;
  trace::Tracer* tracer_ = nullptr;

  std::vector<Shard> shards_;
};

}  // namespace net

// Unit tests for links, topology/routing and the cluster description.
#include <gtest/gtest.h>

#include <sstream>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/cluster.h"
#include "net/link.h"
#include "net/network.h"

namespace {

using net::operator""_KiB;

net::Packet packet(std::uint64_t id, int src, int dst, net::Bytes wire) {
  net::Packet p;
  p.id = id;
  p.src_node = src;
  p.dst_node = dst;
  p.wire_bytes = wire;
  return p;
}

TEST(Link, SerialisationPlusLatency) {
  des::Engine engine;
  // 100 Mbit/s, 5 us latency: 1250 wire bytes = 100 us on the wire.
  net::LinkParams params{net::Rate::mbit(100), des::from_micros(5), 1_KiB * 64};
  net::Link link{engine, "l", params};
  des::SimTime arrival{-1};
  link.submit(packet(1, 0, 1, net::Bytes{1250}),
              [&](const net::Packet&) { arrival = engine.now(); }, nullptr);
  engine.run();
  EXPECT_EQ(arrival, des::SimTime::from_micros(105));
  EXPECT_EQ(link.packets_sent(), 1u);
  EXPECT_EQ(link.bytes_sent(), net::Bytes{1250});
  EXPECT_EQ(link.busy_time(), des::from_micros(100));
}

TEST(Link, FifoQueueingDelaysSecondPacket) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{}, 1_KiB * 64};
  net::Link link{engine, "l", params};
  std::vector<des::SimTime> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.submit(packet(i, 0, 1, net::Bytes{1250}),
                [&](const net::Packet&) { arrivals.push_back(engine.now()); },
                nullptr);
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], des::SimTime::from_micros(100));
  EXPECT_EQ(arrivals[1], des::SimTime::from_micros(200));
  EXPECT_EQ(arrivals[2], des::SimTime::from_micros(300));
  EXPECT_EQ(link.peak_backlog(), net::Bytes{3750});
}

TEST(Link, TailDropWhenBufferFull) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{},
                         net::Bytes{2500}};  // two packets max
  net::Link link{engine, "l", params};
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 4; ++i) {
    link.submit(packet(i, 0, 1, net::Bytes{1250}),
                [&](const net::Packet&) { ++delivered; },
                [&](const net::Packet&) { ++dropped; });
  }
  engine.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(link.packets_dropped(), 2u);
}

TEST(Link, BacklogDrainsAfterServicing) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{}, 64_KiB};
  net::Link link{engine, "l", params};
  link.submit(packet(0, 0, 1, net::Bytes{1250}), nullptr, nullptr);
  EXPECT_EQ(link.backlog(), net::Bytes{1250});
  engine.run();
  EXPECT_EQ(link.backlog(), net::Bytes{});
}

TEST(Link, PerPacketServiceDominatesSmallFrames) {
  des::Engine engine;
  net::LinkParams params{net::Rate::gbit(2.1), des::Duration{}, 1_KiB * 1024,
                         des::from_micros(2)};
  net::Link link{engine, "l", params};
  std::vector<des::SimTime> arrivals;
  for (int i = 0; i < 2; ++i) {
    link.submit(packet(i, 0, 1, net::Bytes{84}),
                [&](const net::Packet&) { arrivals.push_back(engine.now()); },
                nullptr);
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Each packet costs 2 us + 84 B / 2.1 Gbit/s (0.32 us).
  EXPECT_GT(arrivals[1] - arrivals[0], des::from_micros(2));
}

TEST(Network, HopCountsReflectTopology) {
  des::PartitionSet sim{1, des::Duration{}};
  net::ClusterParams params = net::perseus(64);
  net::Network network{sim, params};
  // Same switch: nic_tx + fabric + nic_rx.
  EXPECT_EQ(network.hop_count(0, 1), 3);
  // Adjacent switches (node 0 on switch 0, node 30 on switch 1): one trunk.
  EXPECT_EQ(network.hop_count(0, 30), 4);
  // Two trunk hops: node 0 (switch 0) to node 55 (switch 2).
  EXPECT_EQ(network.hop_count(0, 55), 5);
  EXPECT_EQ(network.hop_count(55, 0), 5);
}

TEST(Network, RouteRejectsBadNodes) {
  des::PartitionSet sim{1, des::Duration{}};
  net::Network network{sim, net::perseus(4)};
  EXPECT_THROW((void)network.hop_count(0, 4), std::out_of_range);
  EXPECT_THROW((void)network.hop_count(-1, 2), std::out_of_range);
  EXPECT_THROW((void)network.hop_count(2, 2), std::invalid_argument);
}

TEST(Network, DeliversAcrossSwitches) {
  des::PartitionSet sim{1, des::Duration{}};
  des::Engine& engine = sim.engine(des::PartitionId{0});
  net::ClusterParams params = net::perseus(48);
  net::Network network{sim, params};
  bool delivered = false;
  network.send(packet(1, 0, 47, net::Bytes{1538}),
               [&](const net::Packet&) { delivered = true; }, nullptr);
  engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.trunk(0).packets_sent(), 1u);
  EXPECT_EQ(network.nic_tx(0).packets_sent(), 1u);
  EXPECT_EQ(network.nic_rx(47).packets_sent(), 1u);
  EXPECT_EQ(network.fabric(0).packets_sent(), 1u);
  EXPECT_EQ(network.total_drops(), 0u);
}

TEST(Network, StatsCsvListsLinks) {
  des::PartitionSet sim{1, des::Duration{}};
  net::Network network{sim, net::perseus(30)};
  const std::string csv = network.stats_csv();
  EXPECT_NE(csv.find("nic_tx.0"), std::string::npos);
  EXPECT_NE(csv.find("trunk.0"), std::string::npos);
  EXPECT_NE(csv.find("fabric.1"), std::string::npos);
}

TEST(Network, RejectsPartitionCountOtherThanOneOrSwitchCount) {
  const net::ClusterParams params = net::perseus(48);  // two switches
  ASSERT_EQ(params.switch_count(), 2);
  des::PartitionSet three{3, params.safe_lookahead()};
  EXPECT_THROW((net::Network{three, params}), std::invalid_argument);
  des::PartitionSet two{2, params.safe_lookahead()};
  EXPECT_NO_THROW((net::Network{two, params}));
}

TEST(Network, RejectsLookaheadAboveSafeBound) {
  const net::ClusterParams params = net::perseus(48);
  des::PartitionSet sim{2, params.safe_lookahead() + des::Duration{1}};
  EXPECT_THROW((net::Network{sim, params}), std::invalid_argument);
}

TEST(Cluster, PerseusShape) {
  const net::ClusterParams p = net::perseus(116);
  EXPECT_EQ(p.nodes, 116);
  EXPECT_EQ(p.switch_count(), 5);
  EXPECT_EQ(p.switch_of(0), 0);
  EXPECT_EQ(p.switch_of(23), 0);
  EXPECT_EQ(p.switch_of(24), 1);
  EXPECT_NEAR(p.nic.rate.bps(), 100e6, 1);
  EXPECT_NEAR(p.trunk.rate.bps(), 2.1e9, 1);
  EXPECT_THROW((void)net::perseus(0), std::invalid_argument);
  EXPECT_THROW((void)net::perseus(117), std::invalid_argument);
}

TEST(Cluster, DescribeMentionsKeyFigures) {
  const std::string text = net::describe(net::perseus(64));
  EXPECT_NE(text.find("64 nodes"), std::string::npos);
  EXPECT_NE(text.find("100 Mbit/s"), std::string::npos);
  EXPECT_NE(text.find("2.1 Gbit/s"), std::string::npos);
}

TEST(Cluster, ParseOverridesBase) {
  std::istringstream is{R"(
# a downgraded cluster
nodes = 8
nic_mbit = 10
eager_threshold_kib = 4
rto_ms = 100
)"};
  const net::ClusterParams p = net::parse_cluster(is, net::perseus(64));
  EXPECT_EQ(p.nodes, 8);
  EXPECT_NEAR(p.nic.rate.bps(), 10e6, 1);
  EXPECT_EQ(p.mpi.eager_threshold, net::Bytes{4096});
  EXPECT_EQ(p.tcp.rto_initial, des::from_micros(100e3));
}

TEST(Cluster, ParseRejectsUnknownKeyAndBadNumber) {
  std::istringstream bad_key{"frobnicate = 3\n"};
  EXPECT_THROW((void)net::parse_cluster(bad_key), std::runtime_error);
  std::istringstream bad_num{"nodes = banana\n"};
  EXPECT_THROW((void)net::parse_cluster(bad_num), std::runtime_error);
  std::istringstream no_eq{"nodes 4\n"};
  EXPECT_THROW((void)net::parse_cluster(no_eq), std::runtime_error);
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(net::Rate::mbit(100).bps(), 1e8);
  EXPECT_DOUBLE_EQ(net::Rate::gbit(2.1).bps(), 2.1e9);
  EXPECT_DOUBLE_EQ(net::Rate::mbyte(10).byte_per_sec(), 1e7);
  // 1538 bytes at 100 Mbit/s = 123.04 us.
  EXPECT_EQ(net::Rate::mbit(100).time_to_send(net::Bytes{1538}),
            des::Duration{123040});
}

TEST(Units, WireFormatFraming) {
  const net::WireFormat wire;
  EXPECT_EQ(wire.mss(), net::Bytes{1460});
  // Full frame: 1460 + 40 + 18 + 20 = 1538 wire bytes.
  EXPECT_EQ(wire.segment_wire_bytes(net::Bytes{1460}), net::Bytes{1538});
  // Tiny segments pad to the 64-byte minimum plus preamble/IFG.
  EXPECT_EQ(wire.ack_wire_bytes(), net::Bytes{84});
}

}  // namespace

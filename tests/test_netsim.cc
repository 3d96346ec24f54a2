#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "netsim/network.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace ipipe::netsim {
namespace {

class Sink : public Endpoint {
 public:
  void receive(PacketPtr pkt) override { received.push_back(std::move(pkt)); }
  std::vector<PacketPtr> received;
};

PacketPtr make_pkt(NodeId src, NodeId dst, std::uint32_t frame = 512) {
  auto pkt = alloc_packet();
  pkt->src = src;
  pkt->dst = dst;
  pkt->frame_size = frame;
  return pkt;
}

TEST(Network, DeliversBetweenEndpoints) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->src, 1u);
  EXPECT_EQ(b.received[0]->nic_arrival, sim.now());
}

TEST(Network, TimingMatchesStoreAndForward) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2, 512));
  sim.run();
  // 2x serialization of (512+24)B at 10Gbps = 2 * 428.8ns + 300ns switch.
  const Ns expected = 2 * wire_time(512, 10.0) + 300;
  EXPECT_EQ(sim.now(), expected);
}

TEST(Network, UplinkContentionSerializes) {
  sim::Simulation sim;
  Network net(sim, 0);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  const int n = 10;
  for (int i = 0; i < n; ++i) net.send(make_pkt(1, 2, 1500));
  sim.run();
  ASSERT_EQ(b.received.size(), static_cast<std::size_t>(n));
  // Last delivery = n serializations on the uplink + 1 on the downlink.
  const Ns expected = n * wire_time(1500, 10.0) + wire_time(1500, 10.0);
  EXPECT_EQ(sim.now(), expected);
}

TEST(Network, UnknownDestinationDropped) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  net.attach(1, a, 10.0);
  net.send(make_pkt(1, 99));
  sim.run();
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_EQ(net.frames_delivered(), 0u);
}

TEST(Network, DropInjection) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  FaultModel fm;
  fm.drop_prob = 0.5;
  net.set_fault_model(fm);
  for (int i = 0; i < 1000; ++i) net.send(make_pkt(1, 2, 64));
  sim.run();
  EXPECT_GT(net.frames_dropped(), 350u);
  EXPECT_LT(net.frames_dropped(), 650u);
  EXPECT_EQ(net.frames_dropped() + b.received.size(), 1000u);
}

TEST(Network, DuplicateInjection) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  FaultModel fm;
  fm.dup_prob = 1.0;
  net.set_fault_model(fm);
  for (int i = 0; i < 10; ++i) net.send(make_pkt(1, 2, 64));
  sim.run();
  EXPECT_EQ(b.received.size(), 20u);
}

TEST(Network, DetachLosesInFlight) {
  sim::Simulation sim;
  Network net(sim, 300);
  Sink a;
  Sink b;
  net.attach(1, a, 10.0);
  net.attach(2, b, 10.0);
  net.send(make_pkt(1, 2));
  net.detach(2);
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.frames_dropped(), 1u);
}

// ------------------------------------------------------- cross-layout --

/// Sums a per-frame payload hash: jitter reorders arrivals, so the digest
/// must not depend on order.
class DigestSink : public Endpoint {
 public:
  void receive(PacketPtr pkt) override {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : pkt->payload) h = (h ^ b) * 1099511628211ULL;
    digest += h;
  }
  std::uint64_t digest = 0;
};

struct StreamResult {
  std::uint64_t sent, delivered, dropped_fault, corrupted, digest;
};

/// Stream 12k distinct frames from node 1 to node 2 (sent on
/// `sender_sim`) under one seeded fault model, with every fault kind on.
StreamResult run_stream(Network& net, sim::Simulation& sender_sim,
                        const DigestSink& sink,
                        const std::function<void()>& run) {
  net.set_fault_model({.drop_prob = 0.05,
                       .dup_prob = 0.05,
                       .corrupt_prob = 0.05,
                       .reorder_jitter = 3000});
  for (int i = 0; i < 12'000; ++i) {
    sender_sim.schedule_at(Ns{1000} * i, [&net, i] {
      auto pkt = net.pool().make();
      pkt->src = 1;
      pkt->dst = 2;
      pkt->frame_size = 256;
      pkt->payload = {static_cast<std::uint8_t>(i),
                      static_cast<std::uint8_t>(i >> 8), 0x5A};
      net.send(std::move(pkt));
    });
  }
  run();
  return {net.frames_sent(), net.frames_delivered(), net.dropped_fault(),
          net.frames_corrupted(), sink.digest};
}

TEST(CrossLayoutFabric, FaultOutcomesMatchAcrossLayouts) {
  // Both layouts make the switch's fault decisions in one function: one
  // queue and a 3-domain engine (sender, switch, sink) fed the same
  // stream must reach the same outcomes.
  sim::Simulation sim;
  Network single(sim, 300);
  DigestSink single_src, single_dst;
  single.attach(1, single_src, 10.0);
  single.attach(2, single_dst, 10.0);
  const StreamResult a =
      run_stream(single, sim, single_dst, [&] { sim.run(); });

  sim::ParallelSimulation psim;
  const sim::DomainId sender = psim.add_domain("sender");
  const sim::DomainId sw = psim.add_domain("switch");
  const sim::DomainId sink = psim.add_domain("sink");
  Network sharded(psim, sw, 300);
  sharded.pool().set_concurrent(true);
  DigestSink sharded_src, sharded_dst;
  sharded.attach(1, sharded_src, 10.0, sender);
  sharded.attach(2, sharded_dst, 10.0, sink);
  sharded.install_lookahead();
  psim.set_threads(3);
  const StreamResult b = run_stream(sharded, psim.domain(sender), sharded_dst,
                                    [&] { psim.run(); });
  sharded.pool().set_concurrent(false);

  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_fault, b.dropped_fault);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.digest, b.digest);
  // Every fault kind fired, so the comparison covers each draw.
  EXPECT_EQ(a.sent, 12'000u);
  EXPECT_GT(a.delivered, a.sent - a.dropped_fault);  // duplicates landed
  EXPECT_GT(a.corrupted, 0u);
  EXPECT_GT(a.dropped_fault, a.corrupted);  // drops beyond corruption
}

TEST(WireTime, LineRateHelpers) {
  // 10Gbps, 1500B frame -> (1500+24)*8 bits / 10 bits-per-ns = 1219ns.
  EXPECT_EQ(wire_time(1500, 10.0), 1219u);
  EXPECT_NEAR(line_rate_pps(1500, 10.0), 820'210.0, 10.0);
  EXPECT_NEAR(goodput_gbps(line_rate_pps(1500, 10.0), 1500), 9.84, 0.01);
}

}  // namespace
}  // namespace ipipe::netsim

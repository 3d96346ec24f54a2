#include "netsim/network.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace ipipe::netsim {

void Network::attach(NodeId node, Endpoint& ep, double gbps,
                     sim::DomainId domain) {
  const bool existing = ports_.count(node) != 0;
  auto& port = ports_[node];
  port.ep = &ep;
  port.gbps = gbps;
  port.up = true;
  if (domain != sim::kNoDomain) {
    port.domain = domain;
  } else if (!existing) {
    port.domain = attach_domain_;
  }
}

void Network::detach(NodeId node) {
  if (!sharded()) {
    ports_.erase(node);
    return;
  }
  // The port map is frozen while engine workers run; mark the port down
  // in place (the flag is owned by the node's own domain, which is where
  // crash events execute).
  const auto it = ports_.find(node);
  if (it != ports_.end()) it->second.up = false;
}

void Network::install_lookahead() {
  assert(sharded());
  for (const auto& [node, port] : ports_) {
    if (port.domain == switch_domain_) continue;
    psim_->set_lookahead(port.domain, switch_domain_, switch_in_);
    psim_->set_lookahead(switch_domain_, port.domain, switch_out_);
  }
}

void Network::block_pair(NodeId a, NodeId b) { ++blocked_pairs_[pair_key(a, b)]; }

void Network::unblock_pair(NodeId a, NodeId b) {
  const auto it = blocked_pairs_.find(pair_key(a, b));
  if (it == blocked_pairs_.end()) return;
  if (--it->second <= 0) blocked_pairs_.erase(it);
}

bool Network::pair_blocked(NodeId a, NodeId b) const {
  return !blocked_pairs_.empty() &&
         blocked_pairs_.count(pair_key(a, b)) != 0;
}

namespace {

void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// Serialize a frame on a link direction that is free from `busy_until`
/// and can start at `ready`; returns (and records) when it is done.
Ns serialize(Ns& busy_until, Ns ready, std::uint32_t frame, double gbps) {
  busy_until = std::max(ready, busy_until) + wire_time(frame, gbps);
  return busy_until;
}

}  // namespace

sim::Simulation& Network::node_sim(NodeId node) {
  if (!sharded()) return sim_;
  const auto it = ports_.find(node);
  return it == ports_.end() ? sim_ : psim_->domain(it->second.domain);
}

void Network::send(PacketPtr pkt) {
  assert(pkt != nullptr);
  bump(frames_sent_);
  const auto src_it = ports_.find(pkt->src);
  const auto dst_it = ports_.find(pkt->dst);
  if (src_it == ports_.end() || dst_it == ports_.end()) {
    bump(dropped_unknown_endpoint_);
    LOG_DEBUG("drop: unknown endpoint %u -> %u", pkt->src, pkt->dst);
    return;
  }
  PortState& src_port = src_it->second;

  if (sharded()) {
    // Hop 1, on the source's domain: serialize on the uplink (the source
    // port's tx state belongs to the sender), then hand off to the switch
    // domain after the ingress half-latency.
    const Ns tx_done =
        serialize(src_port.tx_busy_until, psim_->domain(src_port.domain).now(),
                  pkt->frame_size, src_port.gbps);
    psim_->post(switch_domain_, tx_done + switch_in_,
                [this, p = std::move(pkt)]() mutable {
                  switch_hop(std::move(p));
                });
    return;
  }

  // Single queue: the switch decides at send time.  A frame it eats never
  // occupies the links.
  SwitchVerdict v;
  if (!switch_decide(*pkt, v)) return;
  PortState& dst_port = dst_it->second;
  const Ns now = sim_.now();
  const Ns tx_done =
      serialize(src_port.tx_busy_until, now, pkt->frame_size, src_port.gbps);
  const Ns rx_done =
      serialize(dst_port.rx_busy_until, tx_done + switch_latency_,
                pkt->frame_size, dst_port.gbps);
  const Ns delay = rx_done - now + v.jitter;
  if (v.dup) deliver(std::move(v.dup), delay, v.dup_corrupt);
  deliver(std::move(pkt), delay, v.corrupt);
}

// The switch, in both modes.  All fault randomness draws from the
// switch-owned RNG here, in one order: drop, dup, jitter, then the
// corrupt draw (and bit flip) of the duplicate and of the original —
// each delivered instance crosses the fabric as its own frame.  Sharded,
// the canonical handoff drain order makes the draw sequence, and so every
// fault outcome, a pure function of the workload, independent of thread
// count.
bool Network::switch_decide(Packet& pkt, SwitchVerdict& v) {
  if (pair_blocked(pkt.src, pkt.dst)) {
    bump(dropped_partition_);
    return false;
  }
  if (faults_.drop_prob > 0.0 && rng_.bernoulli(faults_.drop_prob)) {
    bump(dropped_fault_);
    return false;
  }
  const bool duplicate =
      faults_.dup_prob > 0.0 && rng_.bernoulli(faults_.dup_prob);
  if (faults_.reorder_jitter > 0) {
    v.jitter = rng_.uniform_u64(faults_.reorder_jitter + 1);
  }
  if (duplicate) {
    v.dup = pool_.make(pkt);
    v.dup_corrupt = draw_corrupt(*v.dup);
  }
  v.corrupt = draw_corrupt(pkt);
  return true;
}

bool Network::draw_corrupt(Packet& pkt) {
  if (faults_.corrupt_prob <= 0.0 || !rng_.bernoulli(faults_.corrupt_prob)) {
    return false;
  }
  if (pkt.payload.empty()) return true;
  const std::size_t byte = rng_.uniform_u64(pkt.payload.size());
  const std::uint8_t bit = static_cast<std::uint8_t>(rng_.uniform_u64(8));
  pkt.payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
  return true;
}

Network::PortState* Network::live_port(NodeId node) {
  const auto it = ports_.find(node);
  if (it == ports_.end() || !it->second.up || it->second.ep == nullptr) {
    return nullptr;
  }
  return &it->second;
}

void Network::land(PacketPtr pkt, bool corrupt, sim::Simulation& s) {
  PortState* port = live_port(pkt->dst);
  if (port == nullptr) {
    bump(dropped_node_down_);
    return;
  }
  if (corrupt) {
    // The frame occupied the wire, but the MAC's FCS check rejects the
    // flipped payload — the endpoint never sees it.
    bump(dropped_corrupt_);
    return;
  }
  bump(frames_delivered_);
  pkt->nic_arrival = s.now();
  port->ep->receive(std::move(pkt));
}

void Network::deliver(PacketPtr pkt, Ns delay, bool corrupt) {
  // InlineFn takes move-only captures, so the frame rides inside the
  // event itself — no allocation, no shared_ptr shim.
  sim_.schedule(delay, [this, corrupt, p = std::move(pkt)]() mutable {
    land(std::move(p), corrupt, sim_);
  });
}

// ---------------------------------------------------------------------------
// Sharded mode: hops 2 and 3, each owned by one domain.
// ---------------------------------------------------------------------------

// Hop 2, on the switch domain.
void Network::switch_hop(PacketPtr pkt) {
  SwitchVerdict v;
  if (!switch_decide(*pkt, v)) return;
  if (v.dup) post_to_dst(std::move(v.dup), v.jitter, v.dup_corrupt);
  post_to_dst(std::move(pkt), v.jitter, v.corrupt);
}

void Network::post_to_dst(PacketPtr pkt, Ns jitter, bool corrupt) {
  const auto it = ports_.find(pkt->dst);
  if (it == ports_.end()) {
    bump(dropped_node_down_);
    return;
  }
  const sim::DomainId dst_domain = it->second.domain;
  psim_->post(dst_domain, sim_.now() + switch_out_ + jitter,
              [this, corrupt, p = std::move(pkt)]() mutable {
                arrive(std::move(p), corrupt);
              });
}

// Hop 3, on the destination's domain: the up/down check and rx
// serialization use destination-owned state, then the frame lands once
// its downlink time is paid.
void Network::arrive(PacketPtr pkt, bool corrupt) {
  PortState* port = live_port(pkt->dst);
  if (port == nullptr) {
    bump(dropped_node_down_);
    return;
  }
  sim::Simulation& dsim = psim_->domain(port->domain);
  const Ns rx_done = serialize(port->rx_busy_until, dsim.now(),
                               pkt->frame_size, port->gbps);
  dsim.schedule_at(rx_done,
                   [this, corrupt, &dsim, p = std::move(pkt)]() mutable {
                     land(std::move(p), corrupt, dsim);
                   });
}

}  // namespace ipipe::netsim

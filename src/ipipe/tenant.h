// Multi-tenancy: SR-IOV-style virtual functions over one iPipe NIC.
//
// A tenant is the unit of isolation a cloud operator leases: a virtual
// function with its own ingress queue pair (a weighted traffic class in
// the hardware TM, fed through a MAC/flow filter and an ingress
// policer), a group of actors whose DMO footprint and channel bandwidth
// are capped, and a PF<->VF control mailbox.  The runtime enforces the
// caps at the three shared chokepoints — TM admission, send_or_queue(),
// and DMO allocation — so an aggressor tenant saturates only its own
// budget and the damage stays attributable in its counters.
//
// Escalation ladder: repeated violations (policer/queue/quota hits)
// within a window first *throttle* the tenant — its DRR actors stop
// being scheduled and its ingress class drops at line rate until the
// penalty expires — and persistent offenders are *quarantined* as a
// unit (every member actor killed with no supervised restart).  This
// deliberately reuses the §3.4 isolation machinery: a tenant over
// budget is handled like an actor that trapped, scaled up to the VF.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.h"
#include "netsim/packet.h"

namespace ipipe {

/// Tenant handle; doubles as the TM traffic-class index.  0 is the
/// physical function (untenanted traffic, default class).
using TenantId = std::uint16_t;
constexpr TenantId kNoTenant = 0;

struct TenantConfig {
  std::string name;

  /// DRR weight: scales every member actor's quantum, so a weight-2
  /// tenant gets twice the DRR core time of a weight-1 tenant under
  /// contention.  Also the tenant's TM traffic-class weight.
  double drr_weight = 1.0;

  /// Ingress policer (leaky bucket over frame bytes). 0 = unlimited.
  double ingress_rate_bps = 0.0;
  std::uint64_t ingress_burst_bytes = 64 * KiB;
  /// Depth of the tenant's TM traffic class (its RX queue pair).
  std::size_t rx_queue_cap = 1024;

  /// Combined DMO cap across the tenant's actors (both sides). 0 = none.
  std::uint64_t dmo_cap_bytes = 0;

  /// PCIe message-channel budget (token bucket over wire bytes); a
  /// tenant over budget pays a sender-side stall per message instead of
  /// stealing ring capacity from neighbors.  0 = unlimited.
  double chan_rate_bps = 0.0;
  std::uint64_t chan_burst_bytes = 256 * KiB;

  /// PF<->VF control mailbox: pending-request cap and how many requests
  /// the management core serves per tenant per scan (spam containment).
  std::size_t mailbox_cap = 32;
  std::size_t mailbox_batch = 4;

  /// Violations (policer drop / queue drop / quota denial / mailbox
  /// overflow / channel overdraft) within `throttle_window` before the
  /// tenant is throttled; each repeat doubles the penalty.  0 = never.
  std::uint64_t throttle_threshold = 0;
  Ns throttle_window = msec(1);
  /// Throttle episodes before the tenant is quarantined. 0 = never.
  std::uint32_t quarantine_after = 0;

  /// Ingress source filter (the VF's MAC/flow filter): when non-empty,
  /// only frames from these nodes reach the tenant's queue.
  std::vector<netsim::NodeId> allowed_src;
};

/// PF<->VF control mailbox verbs.
enum class VfMboxOp : std::uint8_t {
  kPing,            ///< liveness probe; replies 1.0
  kQueryStats,      ///< replies admitted_packets
  kSetWeight,       ///< arg = new drr/TM weight (clamped to [0.1, 16])
  kSetIngressRate,  ///< arg = new ingress_rate_bps (>= 0)
};

struct VfMboxMsg {
  VfMboxOp op = VfMboxOp::kPing;
  double arg = 0.0;
};

struct VfMboxReply {
  VfMboxOp op = VfMboxOp::kPing;
  double value = 0.0;
  Ns at = 0;  ///< virtual time the management core served the request
};

/// Per-tenant accounting: every enforcement point records the damage it
/// absorbed here, so a victim can prove which tenant caused its loss.
struct TenantStats {
  std::uint64_t admitted_packets = 0;
  std::uint64_t admitted_bytes = 0;
  std::uint64_t policer_drops = 0;   ///< ingress rate limit exceeded
  std::uint64_t queue_drops = 0;     ///< tenant RX class tail-dropped
  std::uint64_t filter_drops = 0;    ///< MAC/flow filter or quarantine
  std::uint64_t throttle_drops = 0;  ///< dropped while throttled
  std::uint64_t chan_bytes = 0;
  std::uint64_t chan_throttle_stalls = 0;
  Ns chan_stall_ns = 0;
  std::uint64_t dmo_denied = 0;  ///< kQuotaExceeded allocations
  std::uint64_t mbox_msgs = 0;
  std::uint64_t mbox_drops = 0;  ///< mailbox over cap
  std::uint64_t mbox_processed = 0;
  std::uint64_t throttles = 0;  ///< throttle episodes entered
  Ns throttled_ns = 0;          ///< total penalty time served
};

/// Runtime-side state of one tenant (the VF control block).
struct TenantState {
  TenantId id = kNoTenant;
  TenantConfig cfg;
  TenantStats stats;

  std::vector<netsim::ActorId> members;  ///< registration order

  // Ingress policer bucket (bytes).
  double ingress_tokens = 0.0;
  Ns ingress_refill_at = 0;

  // Channel budget bucket (bytes).
  double chan_tokens = 0.0;
  Ns chan_refill_at = 0;

  // Violation window + escalation ladder.
  std::uint64_t violations_window = 0;
  Ns window_started = 0;
  Ns throttled_until = 0;
  bool unthrottle_pending = false;  ///< wake DRR cores when penalty lapses
  std::uint32_t throttle_count = 0;
  bool quarantined = false;

  /// TM class_drops() watermark at the last management scan (the delta
  /// folds into stats.queue_drops).
  std::uint64_t tm_drops_seen = 0;

  // PF<->VF mailbox.
  std::deque<VfMboxMsg> mbox;
  std::deque<VfMboxReply> mbox_replies;

  explicit TenantState(TenantId tid, TenantConfig config);

  [[nodiscard]] bool throttled(Ns now) const noexcept {
    return now < throttled_until;
  }
  /// Parked: quarantined, or serving a throttle penalty.  A parked
  /// tenant's ingress drops at line rate, its DRR actors are not
  /// scheduled and its killed actors are not restarted.
  [[nodiscard]] bool parked(Ns now) const noexcept {
    return quarantined || throttled(now);
  }

  /// VF ingress admission: the TM classifier's rules, also applied on the
  /// host while the NIC is down or evacuated.  A local hop already passed
  /// them when its originating frame arrived and is only counted.
  /// Otherwise a parked tenant drops the frame (filter_drops when
  /// quarantined, throttle_drops when throttled), then the source filter
  /// (filter_drops) and the ingress policer's byte bucket (policer_drops),
  /// both violations.
  [[nodiscard]] bool admit(const netsim::Packet& pkt, bool local_hop, Ns now);

  /// Charge `bytes` of PCIe channel traffic; returns the sender-side
  /// stall to add when the tenant is over its channel budget (0 when
  /// within budget or unlimited).
  [[nodiscard]] Ns chan_charge(std::uint64_t bytes, Ns now);

  /// Record one violation at `now` (window bookkeeping only; the
  /// management core decides throttling from `violations_window`).
  void note_violation(Ns now);
};

}  // namespace ipipe

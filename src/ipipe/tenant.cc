#include "ipipe/tenant.h"

#include <algorithm>

namespace ipipe {
namespace {

/// Longest sender-side stall one over-budget channel message can incur.
/// Uncapped, a multi-MB burst against a slow budget would charge the
/// sending core milliseconds for one message; the cap keeps the penalty
/// per-message-shaped (the debt itself is forgiven, matching a leaky
/// bucket that drops excess rather than queueing it).
constexpr Ns kMaxChanStall = usec(50);

/// Refill a byte token bucket at `rate_bps`, clamped to `burst`.
void refill(double& tokens, Ns& last, double rate_bps, std::uint64_t burst,
            Ns now) {
  if (now <= last) return;
  const double elapsed = static_cast<double>(now - last);
  tokens = std::min(static_cast<double>(burst),
                    tokens + elapsed * rate_bps / 8e9);
  last = now;
}

}  // namespace

TenantState::TenantState(TenantId tid, TenantConfig config)
    : id(tid), cfg(std::move(config)) {
  // Buckets start full: a tenant may burst immediately after creation.
  ingress_tokens = static_cast<double>(cfg.ingress_burst_bytes);
  chan_tokens = static_cast<double>(cfg.chan_burst_bytes);
}

bool TenantState::admit(const netsim::Packet& pkt, bool local_hop, Ns now) {
  if (!local_hop) {
    if (parked(now)) {
      ++(quarantined ? stats.filter_drops : stats.throttle_drops);
      return false;
    }
    if (!cfg.allowed_src.empty() &&
        std::find(cfg.allowed_src.begin(), cfg.allowed_src.end(), pkt.src) ==
            cfg.allowed_src.end()) {
      ++stats.filter_drops;
      note_violation(now);
      return false;
    }
    if (cfg.ingress_rate_bps > 0.0) {
      refill(ingress_tokens, ingress_refill_at, cfg.ingress_rate_bps,
             cfg.ingress_burst_bytes, now);
      const auto need = static_cast<double>(pkt.frame_size);
      if (ingress_tokens < need) {
        ++stats.policer_drops;
        note_violation(now);
        return false;
      }
      ingress_tokens -= need;
    }
  }
  ++stats.admitted_packets;
  stats.admitted_bytes += pkt.frame_size;
  return true;
}

Ns TenantState::chan_charge(std::uint64_t bytes, Ns now) {
  stats.chan_bytes += bytes;
  if (cfg.chan_rate_bps <= 0.0) return 0;
  refill(chan_tokens, chan_refill_at, cfg.chan_rate_bps, cfg.chan_burst_bytes,
         now);
  chan_tokens -= static_cast<double>(bytes);
  if (chan_tokens >= 0.0) return 0;

  // Over budget: convert the overdraft into a sender-side stall and
  // forgive the debt (leaky bucket; see kMaxChanStall).
  const double deficit_bytes = -chan_tokens;
  chan_tokens = 0.0;
  const auto stall = static_cast<Ns>(
      std::min(static_cast<double>(kMaxChanStall),
               deficit_bytes * 8e9 / cfg.chan_rate_bps));
  ++stats.chan_throttle_stalls;
  stats.chan_stall_ns += stall;
  note_violation(now);
  return stall;
}

void TenantState::note_violation(Ns now) {
  if (cfg.throttle_threshold == 0) return;
  if (violations_window == 0 || now - window_started > cfg.throttle_window) {
    window_started = now;
    violations_window = 0;
  }
  ++violations_window;
}

}  // namespace ipipe

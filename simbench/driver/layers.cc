#include "layers.h"

#include "common/stats.h"
#include "hostsim/host_model.h"
#include "ipipe/runtime.h"
#include "nic/nic_model.h"

namespace simbench {

using ipipe::testbed::ServerNode;

void GaugeSampler::sample(const std::vector<ServerNode*>& servers) {
  for (ServerNode* s : servers) {
    fcfs_ += s->runtime().fcfs_util();
    drr_ += s->runtime().drr_util();
    ++n_;
  }
}

double host_busy_ns(const std::vector<ServerNode*>& servers) {
  double busy = 0.0;
  for (ServerNode* s : servers) {
    busy += static_cast<double>(s->host().total_busy_ns());
  }
  return busy;
}

void add_layer_counters(RepResult& r, const std::vector<ServerNode*>& servers,
                        ipipe::netsim::Network& net, Ns elapsed,
                        const GaugeSampler& gauges) {
  auto put = [&r](const char* name, double v) { r.counters.emplace_back(name, v); };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  put("netsim.frames_sent", u(net.frames_sent()));
  put("netsim.frames_dropped.fault", u(net.dropped_fault()));
  put("netsim.frames_dropped.partition", u(net.dropped_partition()));
  put("netsim.frames_dropped.node_down", u(net.dropped_node_down()));
  put("netsim.pool_hit_rate", net.pool().hit_rate());

  double rx = 0, tm_drops = 0, nic_busy = 0, nic_cap = 0, host_cap = 0;
  double down = 0, up = 0, push = 0, pull = 0, on_nic = 0, on_host = 0;
  double msgs = 0, retx = 0, bp_ns = 0, kills = 0, evac = 0, reoff = 0;
  for (ServerNode* s : servers) {
    ipipe::Runtime& rt = s->runtime();
    rx += u(s->nic().rx_frames());
    tm_drops += u(s->nic().tm().drops());
    nic_busy += static_cast<double>(s->nic().total_busy_ns());
    nic_cap += static_cast<double>(s->nic().config().cores) *
               static_cast<double>(elapsed);
    host_cap += static_cast<double>(s->host().config().cores) *
                static_cast<double>(elapsed);
    down += u(rt.downgrades());
    up += u(rt.upgrades());
    push += u(rt.push_migrations());
    pull += u(rt.pull_migrations());
    on_nic += u(rt.requests_on_nic());
    on_host += u(rt.requests_on_host());
    for (const ipipe::ChannelDirStats* c :
         {&rt.chan_to_host_stats(), &rt.chan_to_nic_stats()}) {
      msgs += u(c->sent);
      retx += u(c->retransmits);
      bp_ns += static_cast<double>(c->backpressure_ns);
    }
    kills += u(rt.watchdog_kills());
    evac += u(rt.evacuations());
    reoff += u(rt.reoffloads());
  }
  put("nic.rx_frames", rx);
  put("nic.tm_drops", tm_drops);
  put("nic.sim_core_util", nic_cap > 0 ? nic_busy / nic_cap : 0.0);
  put("host.sim_core_util", host_cap > 0 ? host_busy_ns(servers) / host_cap : 0.0);
  put("ipipe.downgrades", down);
  put("ipipe.upgrades", up);
  put("ipipe.fcfs_util", gauges.fcfs_util());
  put("ipipe.drr_util", gauges.drr_util());
  put("ipipe.push_migrations", push);
  put("ipipe.pull_migrations", pull);
  put("ipipe.nic_request_share",
      on_nic + on_host > 0 ? on_nic / (on_nic + on_host) : 0.0);
  put("ipipe.chan_msgs", msgs);
  put("ipipe.chan_retransmits", retx);
  put("ipipe.chan_backpressure_us", bp_ns / 1e3);
  put("ipipe.watchdog_kills", kills);
  put("ipipe.evacuations", evac);
  put("ipipe.reoffloads", reoff);
}

}  // namespace simbench

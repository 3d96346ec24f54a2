// §5.7: network functions on iPipe.
//   (1) Firewall: software TCAM with 8K wildcard rules, 1KB packets —
//       average processing latency as the network load rises.
//   (2) IPSec gateway: AES-256-CTR + SHA-1 (real crypto, accelerator
//       timing) — achieved bandwidth on the 10GbE and 25GbE LiquidIOII.
#include <cstdio>

#include "apps/nf/ipsec.h"
#include "apps/nf/tcam.h"
#include "common/table.h"
#include "harness/sweep.h"
#include "harness/trace_opts.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

constexpr std::uint16_t kReq = 1;
constexpr std::uint16_t kRep = 2;

class FirewallActor final : public Actor {
 public:
  explicit FirewallActor(std::size_t rules) : Actor("firewall") {
    Rng rng(17);
    for (std::size_t i = 0; i < rules; ++i) {
      nf::TcamRule rule{};
      rule.value.dst_ip = static_cast<std::uint32_t>(rng.next());
      rule.mask.dst_ip = 0xFFFFFF00;
      rule.value.proto = static_cast<std::uint8_t>(rng.uniform_u64(2));
      rule.mask.proto = 0xFF;
      rule.priority = static_cast<std::uint32_t>(i);
      rule.action = 1;
      tcam_.add_rule(rule);
    }
  }

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    nf::FiveTuple tuple;
    tuple.dst_ip = req.flow * 2654435761u;
    tuple.proto = static_cast<std::uint8_t>(req.flow & 1);
    const auto result = tcam_.lookup(tuple);
    const double scanned = result
                               ? static_cast<double>(result->rules_scanned)
                               : static_cast<double>(tcam_.size());
    // Rule-scan cost over a TCAM that far exceeds the L2 cache.
    env.compute(scanned * 6.0);
    env.mem(tcam_.memory_bytes(), static_cast<std::uint64_t>(scanned / 16.0));
    env.reply(req, kRep, {});
  }

 private:
  nf::SoftTcam tcam_;
};

class IpsecActor final : public Actor {
 public:
  IpsecActor()
      : Actor("ipsec"),
        gw_(std::vector<std::uint8_t>(32, 0x42), {0x11, 0x22, 0x33}) {}

  void handle(ActorEnv& env, const netsim::Packet& req) override {
    // Real ESP encapsulation; the AES/SHA-1 engines absorb the cost
    // (batched per 8 packets as §2.2.3 recommends).
    const auto esp = gw_.encapsulate(req.payload.empty()
                                         ? std::vector<std::uint8_t>(1024, 1)
                                         : req.payload);
    (void)esp;
    env.accel(nic::AccelKind::kAes, req.frame_size, 8);
    env.accel(nic::AccelKind::kSha1, req.frame_size, 8);
    env.compute(300);
    env.reply(req, kRep, {}, req.frame_size);
  }

 private:
  nf::IpsecGateway gw_;
};

}  // namespace

int main(int argc, char** argv) {
  // --trace-out= captures the 0.9-load firewall run.
  const bench::TraceOpts trace = bench::parse_trace_opts(argc, argv);
  const bench::SweepOpts sweep_opts = bench::parse_sweep_opts(argc, argv);
  bench::SweepRunner runner(sweep_opts);

  // ---- Firewall latency vs load -----------------------------------------
  // Each load level is an independent simulation; compute them through the
  // sweep runner (parallel under --jobs=N), print in order afterwards.
  const std::vector<double> loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  struct FwPoint {
    double mean_us;
    double p99_us;
  };
  const auto fw_points = runner.map(
      loads.size(), [&](std::size_t i, bench::PointPerf& perf) {
        const double load = loads[i];
        perf.label = strf("firewall load=%.1f", load);
        testbed::Cluster cluster;
        testbed::ServerSpec spec;
        const bool traced = trace.enabled() && load >= 0.9;
        if (traced) trace.apply(spec.ipipe);
        auto& server = cluster.add_server(spec);
        const ActorId id = server.runtime().register_actor(
            std::make_unique<FirewallActor>(8192));
        workloads::EchoWorkloadParams wl;
        wl.server = 0;
        wl.frame_size = 1024;
        wl.actor = id;
        wl.msg_type = kReq;
        auto& client = cluster.add_client(10.0, workloads::echo_workload(wl));
        client.set_warmup(msec(10));
        client.start_open_loop(load * line_rate_pps(1024, 10.0), msec(50),
                               true);
        cluster.run_until(msec(60));
        if (traced) bench::write_cluster_trace(trace, cluster, "nf/firewall");
        bench::fill_perf(perf, cluster);
        return FwPoint{client.latencies().mean_ns() / 1000.0,
                       to_us(client.latencies().p99())};
      });
  std::printf(
      "\n§5.7 firewall: avg packet latency (us), 8K wildcard rules, 1KB "
      "packets, 10GbE CN2350\n");
  TablePrinter fw_table({"load", "avg(us)", "p99(us)"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    fw_table.add_row({strf("%.1f", loads[i]),
                      strf("%.2f", fw_points[i].mean_us),
                      strf("%.2f", fw_points[i].p99_us)});
  }
  fw_table.print();
  std::printf(
      "Paper: 3.65-19.41us across load (FPGA solutions: 1.23-1.6us).\n");

  // ---- IPSec gateway bandwidth ------------------------------------------
  struct IpsecPoint {
    std::string card;
    double gbps;
    double line_gbps;
  };
  const auto ipsec_points = runner.map(
      std::size_t{2}, [&](std::size_t i, bench::PointPerf& perf) {
        const bool is_25g = i == 1;
        perf.label = strf("ipsec %s", is_25g ? "25g" : "10g");
        testbed::Cluster cluster;
        testbed::ServerSpec spec;
        spec.nic = is_25g ? nic::liquidio_cn2360() : nic::liquidio_cn2350();
        auto& server = cluster.add_server(spec);
        const ActorId id =
            server.runtime().register_actor(std::make_unique<IpsecActor>());
        workloads::EchoWorkloadParams wl;
        wl.server = 0;
        wl.frame_size = 1024;
        wl.actor = id;
        wl.msg_type = kReq;
        const double link = spec.nic.link_gbps;
        auto& client = cluster.add_client(link, workloads::echo_workload(wl));
        client.set_warmup(msec(10));
        client.start_open_loop(line_rate_pps(1024, link) * 1.02, msec(50),
                               false);
        cluster.run_until(msec(60));
        const double window = to_sec(client.last_completion() -
                                     client.first_measured_completion());
        const double gbps =
            window > 0 ? goodput_gbps(static_cast<double>(
                                          client.completed_after_warmup()) /
                                          window,
                                      1024)
                       : 0.0;
        bench::fill_perf(perf, cluster);
        return IpsecPoint{spec.nic.name, gbps,
                          goodput_gbps(line_rate_pps(1024, link), 1024)};
      });
  std::printf("\n§5.7 IPSec gateway: achieved bandwidth, 1KB packets\n");
  TablePrinter ipsec_table({"card", "goodput (Gbps)", "line rate"});
  for (const auto& pt : ipsec_points) {
    ipsec_table.add_row({pt.card, strf("%.1f", pt.gbps),
                         strf("%.1f", pt.line_gbps)});
  }
  ipsec_table.print();
  if (!runner.write_json("nf_firewall_ipsec")) return 1;
  std::printf(
      "Paper: 8.6 Gbps (10GbE) and 22.9 Gbps (25GbE) with the crypto "
      "engines — comparable to FPGA ClickNP per link.\n");
  return 0;
}

// NIC-failure acceptance driver: a 3-replica RKV group plus an echo
// latency probe, all on watchdog-enabled servers, driven through a fixed
// schedule of NIC-scoped faults (`nic-crash`, `pcie-flap`, `nic-reset`,
// `accel-fail`).  Each crash fences the channel, emergency-evacuates the
// NIC-resident actors to the host (crash-consistent DMO mirror replay),
// serves degraded from the host, and re-offloads on revival — so the
// consensus group never loses its leader and no election storm follows a
// device failure.
//
// stdout is a pure function of (--seed, --duration-s) — byte-identical
// for every --sim-threads value — and ends with FNV digests of the chaos
// event log and the workload results so CI can diff whole runs as one
// line.
//
//   nic_failover [--sim-threads=N] [--duration-s=S] [--seed=N]
//                [--p99-factor=F]
//
// Exit codes: 0 ok, 2 lost acked writes, 3 read-back verification failed
// (corrupt value or incomplete), 4 degraded p99 exceeded
// --p99-factor x the healthy baseline.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "harness/acceptance.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

constexpr int kReplicas = 3;           // nodes 0..2
constexpr int kEchoNode = kReplicas;   // node 3: latency probe target
constexpr std::uint64_t kSeqMask = (1ULL << 40) - 1;

std::string fo_key(std::uint64_t k) { return "fo" + std::to_string(k); }

std::vector<std::uint8_t> fo_value(std::uint64_t k) {
  return {static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k >> 8),
          static_cast<std::uint8_t>(k >> 16), 0xA5};
}

class EchoActor final : public Actor {
 public:
  EchoActor() : Actor("echo") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(2));
    env.reply(req, 2, {});
  }
};

}  // namespace

int main(int argc, char** argv) {
  unsigned sim_threads = 1;
  double duration_s = 12.0;
  std::uint64_t seed = 1;
  double p99_factor = 50.0;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flag_value(argv[i], "--sim-threads")) {
      const long n = std::strtol(v, nullptr, 10);
      sim_threads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (const char* v = bench::flag_value(argv[i], "--duration-s")) {
      duration_s = std::strtod(v, nullptr);
    } else if (const char* v = bench::flag_value(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flag_value(argv[i], "--p99-factor")) {
      p99_factor = std::strtod(v, nullptr);
    }
  }
  if (duration_s < 12.0) {
    std::fprintf(stderr, "nic_failover: --duration-s must be >= 12\n");
    return 1;
  }
  const Ns total = sec(duration_s);
  const Ns write_end = total - sec(3);
  const Ns verify_at = write_end + msec(500);

  testbed::Cluster cluster(testbed::Layout::kDomainPerNode);
  cluster.set_threads(sim_threads);
  for (int i = 0; i <= kEchoNode; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = true;
    spec.ipipe.nic_watchdog = true;
    spec.ipipe.watchdog_heartbeat = usec(200);
    spec.ipipe.watchdog_miss_limit = 4;
    spec.ipipe.watchdog_probe_cap = msec(2);
    spec.ipipe.dmo_host_mirror = true;
    cluster.add_server(spec);
  }

  // ---- RKV group --------------------------------------------------------
  rkv::RkvParams params;
  params.replicas = {0, 1, 2};
  params.enable_failover = true;
  params.heartbeat_period = msec(100);
  params.election_timeout_min = msec(250);
  params.election_timeout_max = msec(450);
  std::vector<rkv::RkvDeployment> deps;
  for (int r = 0; r < kReplicas; ++r) {
    params.self_index = static_cast<std::size_t>(r);
    const auto d =
        rkv::deploy_rkv(cluster.server(static_cast<std::size_t>(r)).runtime(),
                        params);
    deps.push_back(d);
    params.peer_consensus_actor = d.consensus;
  }
  const ActorId echo_id =
      cluster.server(kEchoNode).runtime().register_actor(
          std::make_unique<EchoActor>());

  // ---- Writer: unique keys, retried across redirects and abandons -------
  netsim::NodeId leader = 0;
  std::deque<std::uint64_t> wq;
  std::map<std::uint64_t, std::uint64_t> wissued;
  std::set<std::uint64_t> acked;
  std::uint64_t next_key = 1;
  const ActorId consensus = deps[0].consensus;

  auto& writer = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        std::uint64_t key = 0;
        if (!wq.empty()) {
          key = wq.front();
          wq.pop_front();
        } else if (cluster.client_sim().now() < write_end) {
          key = next_key++;
        } else {
          return netsim::PacketPtr{};
        }
        wissued[seq] = key;
        auto pkt = pool.make();
        pkt->dst = leader;
        pkt->dst_actor = consensus;
        pkt->msg_type = rkv::kClientPut;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kPut;
        req.key = fo_key(key);
        req.value = fo_value(key);
        pkt->payload = req.encode();
        return pkt;
      },
      /*seed=*/seed * 1000 + 17);
  writer.enable_retries(
      {.timeout = msec(80), .max_retries = 4, .backoff = 2.0, .cap = msec(600)});
  writer.set_on_reply([&](const netsim::Packet& pkt) {
    const auto it = wissued.find(pkt.request_id & kSeqMask);
    if (it == wissued.end()) return;
    const auto rep = rkv::ClientReply::decode(pkt.payload);
    if (!rep) return;
    const std::uint64_t key = it->second;
    wissued.erase(it);
    if (rep->status == rkv::Status::kOk) {
      acked.insert(key);
      return;
    }
    if (rep->status == rkv::Status::kNotLeader && !rep->value.empty() &&
        rep->value[0] < kReplicas) {
      leader = rep->value[0];
    }
    wq.push_back(key);
  });
  writer.set_on_abandon([&](std::uint64_t rid) {
    const auto it = wissued.find(rid & kSeqMask);
    if (it != wissued.end()) {
      wq.push_back(it->second);
      wissued.erase(it);
    }
    leader = (leader + 1) % kReplicas;
  });
  writer.start_open_loop(100.0, write_end, /*poisson=*/false);

  // ---- Verifier: after the final heal, read back every acked key --------
  std::deque<std::uint64_t> vq;
  std::map<std::uint64_t, std::uint64_t> vissued;
  std::map<std::uint64_t, int> vattempts;
  std::uint64_t verified = 0;
  std::uint64_t lost = 0;
  std::uint64_t corrupt = 0;

  auto& verifier = cluster.add_client(
      10.0,
      [&](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        if (vq.empty()) return netsim::PacketPtr{};
        const std::uint64_t key = vq.front();
        vq.pop_front();
        vissued[seq] = key;
        auto pkt = pool.make();
        pkt->dst = leader;
        pkt->dst_actor = consensus;
        pkt->msg_type = rkv::kClientGet;
        pkt->frame_size = 256;
        rkv::ClientReq req;
        req.op = rkv::Op::kGet;
        req.key = fo_key(key);
        pkt->payload = req.encode();
        return pkt;
      },
      /*seed=*/seed * 1000 + 23);
  verifier.enable_retries(
      {.timeout = msec(80), .max_retries = 4, .backoff = 2.0, .cap = msec(600)});
  verifier.set_on_reply([&](const netsim::Packet& pkt) {
    const auto it = vissued.find(pkt.request_id & kSeqMask);
    if (it == vissued.end()) return;
    const auto rep = rkv::ClientReply::decode(pkt.payload);
    if (!rep) return;
    const std::uint64_t key = it->second;
    vissued.erase(it);
    if (rep->status == rkv::Status::kOk) {
      if (rep->value == fo_value(key)) {
        ++verified;
      } else {
        ++corrupt;
      }
      return;
    }
    if (rep->status == rkv::Status::kNotLeader) {
      if (!rep->value.empty() && rep->value[0] < kReplicas) {
        leader = rep->value[0];
      }
      vq.push_back(key);
      return;
    }
    if (++vattempts[key] <= 5) {
      vq.push_back(key);
    } else {
      ++lost;
    }
  });
  verifier.set_on_abandon([&](std::uint64_t rid) {
    const auto it = vissued.find(rid & kSeqMask);
    if (it != vissued.end()) {
      vq.push_back(it->second);
      vissued.erase(it);
    }
    leader = (leader + 1) % kReplicas;
  });
  cluster.client_sim().schedule_at(verify_at, [&] {
    for (const std::uint64_t key : acked) vq.push_back(key);
    verifier.start_open_loop(600.0, total, /*poisson=*/false);
  });

  // ---- Echo latency probe ----------------------------------------------
  workloads::EchoWorkloadParams wl;
  wl.server = static_cast<netsim::NodeId>(kEchoNode);
  wl.actor = echo_id;
  wl.msg_type = 1;
  wl.frame_size = 512;
  auto& probe = cluster.add_client(10.0, workloads::echo_workload(wl),
                                   /*seed=*/seed * 1000 + 91);
  probe.enable_retries(
      {.timeout = msec(20), .max_retries = 3, .backoff = 2.0, .cap = msec(200)});
  probe.start_closed_loop(4, total - msec(50));

  // Snapshot the healthy-phase p99 just before the first fault; the final
  // (cumulative) p99 includes every degraded window and must stay within
  // --p99-factor of it.
  std::uint64_t healthy_p99 = 0;
  cluster.client_sim().schedule_at(sec(2) - msec(100), [&] {
    healthy_p99 = probe.latencies().p99();
  });

  // ---- NIC fault schedule -----------------------------------------------
  // Leader NIC crash, a short PCIe flap (parked, no trip), a firmware
  // reset on the third replica, an accelerator-bank failure, and a crash
  // on the echo node so the probe measures degraded-mode service.
  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  plan.nic_crash(0, sec(2), msec(1500));
  plan.pcie_flap(1, sec(4) + msec(500), msec(10));
  plan.nic_reset(2, sec(5) + msec(500), msec(300));
  plan.accel_fail(0, 0, sec(6) + msec(500), msec(500));
  plan.nic_crash(static_cast<netsim::NodeId>(kEchoNode), sec(7), msec(800));
  chaos->execute(plan);

  cluster.run_until(total);

  // ---- Deterministic report (identical for every --sim-threads) --------
  std::printf("# nic_failover seed=%llu duration=%.0fs\n",
              static_cast<unsigned long long>(seed), duration_s);
  std::fputs(chaos->event_log_text().c_str(), stdout);
  std::printf("chaos nic_crashes=%llu nic_restores=%llu\n",
              static_cast<unsigned long long>(chaos->nic_crashes()),
              static_cast<unsigned long long>(chaos->nic_restores()));

  std::uint64_t results = bench::kFnvBasis;
  std::uint64_t trips = 0;
  std::uint64_t evacs = 0;
  std::uint64_t reoffloads = 0;
  for (int i = 0; i <= kEchoNode; ++i) {
    auto& rt = cluster.server(static_cast<std::size_t>(i)).runtime();
    std::printf(
        "node=%d trips=%llu evacuations=%llu replayed=%llu lost_bytes=%llu "
        "reoffloads=%llu host_reqs=%llu nic_down=%d evacuated=%d\n",
        i, static_cast<unsigned long long>(rt.watchdog_trips()),
        static_cast<unsigned long long>(rt.evacuations()),
        static_cast<unsigned long long>(rt.evac_replayed_bytes()),
        static_cast<unsigned long long>(rt.evac_lost_bytes()),
        static_cast<unsigned long long>(rt.reoffloads()),
        static_cast<unsigned long long>(rt.requests_on_host()),
        rt.nic_down() ? 1 : 0, rt.evacuated() ? 1 : 0);
    trips += rt.watchdog_trips();
    evacs += rt.evacuations();
    reoffloads += rt.reoffloads();
    results = bench::fnv1a_u64(results, rt.watchdog_trips());
    results = bench::fnv1a_u64(results, rt.evacuations());
    results = bench::fnv1a_u64(results, rt.evac_replayed_bytes());
    results = bench::fnv1a_u64(results, rt.evac_lost_bytes());
    results = bench::fnv1a_u64(results, rt.reoffloads());
  }
  const std::uint64_t unverified =
      acked.size() - static_cast<std::size_t>(verified + lost + corrupt);
  std::printf("acked=%zu verified=%llu lost=%llu corrupt=%llu "
              "unverified=%llu writer_retx=%llu\n",
              acked.size(), static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(corrupt),
              static_cast<unsigned long long>(unverified),
              static_cast<unsigned long long>(writer.retransmits()));
  std::printf("probe completed=%llu healthy_p99=%lluns final_p99=%lluns\n",
              static_cast<unsigned long long>(probe.completed()),
              static_cast<unsigned long long>(healthy_p99),
              static_cast<unsigned long long>(probe.latencies().p99()));
  results = bench::fnv1a_u64(results, acked.size());
  results = bench::fnv1a_u64(results, verified);
  results = bench::fnv1a_u64(results, lost);
  results = bench::fnv1a_u64(results, corrupt);
  results = bench::fnv1a_u64(results, writer.retransmits());
  results = bench::fnv1a_u64(results, probe.completed());
  results = bench::fnv1a_u64(results, probe.latencies().p50());
  results = bench::fnv1a_u64(results, probe.latencies().p99());
  for (const std::uint64_t k : acked) results = bench::fnv1a_u64(results, k);

  const std::uint64_t chaos_digest =
      bench::fnv1a_str(bench::kFnvBasis, chaos->event_log_text());
  std::printf("digest chaos=%016llx results=%016llx\n",
              static_cast<unsigned long long>(chaos_digest),
              static_cast<unsigned long long>(results));

  if (trips == 0 || evacs == 0 || reoffloads == 0) {
    std::fprintf(stderr,
                 "nic_failover: fault cycle incomplete (trips=%llu "
                 "evacuations=%llu reoffloads=%llu)\n",
                 static_cast<unsigned long long>(trips),
                 static_cast<unsigned long long>(evacs),
                 static_cast<unsigned long long>(reoffloads));
    return 3;
  }
  if (lost > 0) return 2;
  if (corrupt > 0 || unverified > 0) return 3;
  const std::uint64_t final_p99 = probe.latencies().p99();
  if (healthy_p99 > 0 &&
      static_cast<double>(final_p99) >
          p99_factor * static_cast<double>(healthy_p99)) {
    std::fprintf(stderr,
                 "nic_failover: degraded p99 %lluns exceeds %.1fx healthy "
                 "baseline %lluns\n",
                 static_cast<unsigned long long>(final_p99), p99_factor,
                 static_cast<unsigned long long>(healthy_p99));
    return 4;
  }
  return 0;
}

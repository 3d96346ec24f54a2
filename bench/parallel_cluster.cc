// Parallel-engine acceptance driver: a 16-node rack (4 replicated-KV
// groups of 3 replicas + 4 echo servers) under a chaos schedule, executed
// on the sharded conservative engine.  stdout is a pure function of
// (--seed, --duration-s) — byte-identical for every --sim-threads value —
// and ends with FNV digests of the chaos event log, an exported runtime
// trace, and every workload result, so CI can diff whole runs as one
// line.  Wall-clock time goes to stderr (and --wall-out=<path> as JSON)
// for the scaling assertion.
//
//   parallel_cluster [--sim-threads=N] [--duration-s=S] [--seed=N]
//                    [--min-events=N] [--wall-out=<path>]
//
// Exit codes: 0 ok, 1 --wall-out could not be written, 2 lost acked
// writes, 3 fewer events than --min-events.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rkv/rkv_actors.h"
#include "common/trace.h"
#include "harness/acceptance.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

constexpr int kGroups = 4;
constexpr int kReplicas = 3;
constexpr int kRkvServers = kGroups * kReplicas;  // nodes 0..11
constexpr int kEchoServers = 4;                   // nodes 12..15
constexpr int kServers = kRkvServers + kEchoServers;
constexpr std::uint64_t kSeqMask = (1ULL << 40) - 1;

std::string group_key(int group, std::uint64_t k) {
  return "g" + std::to_string(group) + "k" + std::to_string(k);
}

std::vector<std::uint8_t> group_value(int group, std::uint64_t k) {
  return {static_cast<std::uint8_t>(group), static_cast<std::uint8_t>(k),
          static_cast<std::uint8_t>(k >> 8), 0x5A};
}

/// Per-group PUT workload state (all clients live in the clients domain,
/// so sharing these across closures is single-threaded by construction).
struct GroupWriter {
  netsim::NodeId leader = 0;
  netsim::NodeId lo = 0;  ///< first node of the group
  std::deque<std::uint64_t> queue;
  std::map<std::uint64_t, std::uint64_t> issued;  ///< seq -> key
  std::set<std::uint64_t> acked;
  std::uint64_t next_key = 1;
  ActorId consensus = 0;
  workloads::ClientGen* client = nullptr;
};

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
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  std::uint64_t min_events = 0;
  std::string wall_out;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flag_value(argv[i], "--sim-threads")) {
      const long n = std::strtol(v, nullptr, 10);
      sim_threads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (const char* v = bench::flag_value(argv[i], "--duration-s")) {
      duration_s = std::strtod(v, nullptr);
    } else if (const char* v = bench::flag_value(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flag_value(argv[i], "--min-events")) {
      min_events = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flag_value(argv[i], "--wall-out")) {
      wall_out = v;
    }
  }
  if (duration_s < 1.0) {
    std::fprintf(stderr, "parallel_cluster: --duration-s must be >= 1\n");
    return 1;
  }
  const Ns total = sec(duration_s);
  const Ns write_end = total - sec(duration_s * 0.2);

  testbed::Cluster cluster(testbed::Layout::kDomainPerNode);
  cluster.set_threads(sim_threads);
  for (int i = 0; i < kServers; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = i < kRkvServers;
    cluster.add_server(spec);
  }
  // Trace one RKV replica and one echo server; the exported text (with
  // the engine counters) feeds the trace digest.
  cluster.server(0).runtime().enable_tracing(1 << 14, msec(250));
  cluster.server(kRkvServers).runtime().enable_tracing(1 << 14, msec(250));

  // ---- RKV groups -------------------------------------------------------
  std::vector<GroupWriter> groups(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    rkv::RkvParams params;
    params.replicas.clear();
    for (int r = 0; r < kReplicas; ++r) {
      params.replicas.push_back(static_cast<netsim::NodeId>(g * kReplicas + r));
    }
    params.enable_failover = true;
    params.heartbeat_period = msec(100);
    params.election_timeout_min = msec(250);
    params.election_timeout_max = msec(450);
    for (int r = 0; r < kReplicas; ++r) {
      params.self_index = static_cast<std::size_t>(r);
      const auto d = rkv::deploy_rkv(
          cluster.server(static_cast<std::size_t>(g * kReplicas + r)).runtime(),
          params);
      params.peer_consensus_actor = d.consensus;
      if (r == 0) groups[static_cast<std::size_t>(g)].consensus = d.consensus;
    }
    groups[static_cast<std::size_t>(g)].lo =
        static_cast<netsim::NodeId>(g * kReplicas);
    groups[static_cast<std::size_t>(g)].leader =
        groups[static_cast<std::size_t>(g)].lo;
  }
  for (int g = 0; g < kGroups; ++g) {
    GroupWriter& gw = groups[static_cast<std::size_t>(g)];
    auto& client = cluster.add_client(
        10.0,
        [&gw, g, write_end, &cluster](std::uint64_t seq, Rng&,
                                      netsim::PacketPool& pool) {
          std::uint64_t key = 0;
          if (!gw.queue.empty()) {
            key = gw.queue.front();
            gw.queue.pop_front();
          } else if (cluster.client_sim().now() < write_end) {
            key = gw.next_key++;
          } else {
            return netsim::PacketPtr{};
          }
          gw.issued[seq] = key;
          auto pkt = pool.make();
          pkt->dst = gw.leader;
          pkt->dst_actor = gw.consensus;
          pkt->msg_type = rkv::kClientPut;
          pkt->frame_size = 256;
          rkv::ClientReq req;
          req.op = rkv::Op::kPut;
          req.key = group_key(g, key);
          req.value = group_value(g, key);
          pkt->payload = req.encode();
          return pkt;
        },
        /*seed=*/seed * 1000 + 17 + static_cast<std::uint64_t>(g));
    client.enable_retries({.timeout = msec(80),
                           .max_retries = 4,
                           .backoff = 2.0,
                           .cap = msec(600)});
    client.set_on_reply([&gw](const netsim::Packet& pkt) {
      const auto it = gw.issued.find(pkt.request_id & kSeqMask);
      if (it == gw.issued.end()) return;
      const auto rep = rkv::ClientReply::decode(pkt.payload);
      if (!rep) return;
      const std::uint64_t key = it->second;
      gw.issued.erase(it);
      if (rep->status == rkv::Status::kOk) {
        gw.acked.insert(key);
        return;
      }
      if (rep->status == rkv::Status::kNotLeader && !rep->value.empty() &&
          rep->value[0] >= gw.lo && rep->value[0] < gw.lo + kReplicas) {
        gw.leader = rep->value[0];
      }
      gw.queue.push_back(key);
    });
    client.set_on_abandon([&gw](std::uint64_t rid) {
      const auto it = gw.issued.find(rid & kSeqMask);
      if (it != gw.issued.end()) {
        gw.queue.push_back(it->second);
        gw.issued.erase(it);
      }
      gw.leader = gw.lo + (gw.leader - gw.lo + 1) % kReplicas;
    });
    client.start_open_loop(100.0, write_end, /*poisson=*/false);
    gw.client = &client;
  }

  // ---- Echo servers -----------------------------------------------------
  std::vector<workloads::ClientGen*> echo_clients;
  for (int e = 0; e < kEchoServers; ++e) {
    const auto node = static_cast<std::size_t>(kRkvServers + e);
    const ActorId id = cluster.server(node).runtime().register_actor(
        std::make_unique<EchoActor>());
    workloads::EchoWorkloadParams wl;
    wl.server = static_cast<netsim::NodeId>(node);
    wl.actor = id;
    wl.msg_type = 1;
    wl.frame_size = 512;
    auto& client =
        cluster.add_client(10.0, workloads::echo_workload(wl),
                           /*seed=*/seed * 1000 + 91 + static_cast<std::uint64_t>(e));
    client.enable_retries({.timeout = msec(20),
                           .max_retries = 3,
                           .backoff = 2.0,
                           .cap = msec(200)});
    client.start_closed_loop(8, total - msec(50));
    echo_clients.push_back(&client);
  }

  // ---- Chaos schedule ---------------------------------------------------
  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  {
    // A staggered replica crash per group, a fabric loss window, and one
    // flaky PCIe link on an echo node — plus a seeded random tail.
    for (int g = 0; g < kGroups; ++g) {
      plan.crash(static_cast<netsim::NodeId>(g * kReplicas), sec(2) + sec(g),
                 msec(1500));
    }
    netsim::FaultModel lossy;
    lossy.drop_prob = 0.01;
    lossy.corrupt_prob = 0.01;
    plan.link_fault(lossy, total / 2, msec(800));
    plan.pcie_corrupt(static_cast<netsim::NodeId>(kRkvServers + 1), 0.01,
                      total / 2, msec(500));
    Rng prng(0x9C1C0ULL + seed);
    Ns t = total / 2 + sec(1);
    while (t < total - sec(2)) {
      const int g = static_cast<int>(prng.uniform_u64(kGroups));
      const auto victim = static_cast<netsim::NodeId>(
          g * kReplicas + static_cast<int>(prng.uniform_u64(kReplicas)));
      plan.crash(victim, t, msec(500) + static_cast<Ns>(prng.uniform_u64(sec(1))));
      t += sec(1) + static_cast<Ns>(prng.uniform_u64(sec(1)));
    }
  }
  chaos->execute(plan);

  // ---- Run --------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_until(total);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // ---- Deterministic report (identical for every --sim-threads) --------
  const std::uint64_t events = cluster.engine().executed();
  std::printf("# parallel_cluster seed=%llu duration=%.0fs servers=%d\n",
              static_cast<unsigned long long>(seed), duration_s, kServers);
  std::printf("events=%llu rounds=%llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(cluster.engine().rounds()));
  std::printf(
      "net frames=%llu delivered=%llu dropped=%llu corrupted=%llu\n",
      static_cast<unsigned long long>(cluster.net().frames_sent()),
      static_cast<unsigned long long>(cluster.net().frames_delivered()),
      static_cast<unsigned long long>(cluster.net().frames_dropped()),
      static_cast<unsigned long long>(cluster.net().frames_corrupted()));

  std::uint64_t results = bench::kFnvBasis;
  bool lost = false;
  for (int g = 0; g < kGroups; ++g) {
    const GroupWriter& gw = groups[static_cast<std::size_t>(g)];
    std::printf("group %d: acked=%zu retx=%llu\n", g, gw.acked.size(),
                static_cast<unsigned long long>(gw.client->retransmits()));
    results = bench::fnv1a_u64(results, gw.acked.size());
    results = bench::fnv1a_u64(results, gw.client->retransmits());
    for (const std::uint64_t k : gw.acked) {
      results = bench::fnv1a_u64(results, k);
    }
    if (gw.acked.empty()) lost = true;  // a group that never acked is dead
  }
  for (int e = 0; e < kEchoServers; ++e) {
    auto& c = *echo_clients[static_cast<std::size_t>(e)];
    std::printf("echo %d: completed=%llu p50=%lluns p99=%lluns\n", e,
                static_cast<unsigned long long>(c.completed()),
                static_cast<unsigned long long>(c.latencies().p50()),
                static_cast<unsigned long long>(c.latencies().p99()));
    results = bench::fnv1a_u64(results, c.completed());
    results = bench::fnv1a_u64(results, c.latencies().p50());
    results = bench::fnv1a_u64(results, c.latencies().p99());
  }
  std::printf("chaos crashes=%llu restores=%llu partitions=%llu heals=%llu\n",
              static_cast<unsigned long long>(chaos->crashes()),
              static_cast<unsigned long long>(chaos->restores()),
              static_cast<unsigned long long>(chaos->partitions()),
              static_cast<unsigned long long>(chaos->heals()));

  const std::uint64_t chaos_digest =
      bench::fnv1a_str(bench::kFnvBasis, chaos->event_log_text());
  std::ostringstream traces;
  trace::export_text(traces, cluster.server(0).runtime().tracer(),
                     &cluster.server(0).runtime().metrics());
  trace::export_text(traces, cluster.server(kRkvServers).runtime().tracer(),
                     &cluster.server(kRkvServers).runtime().metrics());
  const std::uint64_t trace_digest =
      bench::fnv1a_str(bench::kFnvBasis, traces.str());
  std::printf("digest chaos=%016llx trace=%016llx results=%016llx\n",
              static_cast<unsigned long long>(chaos_digest),
              static_cast<unsigned long long>(trace_digest),
              static_cast<unsigned long long>(results));

  // Wall-clock numbers are thread-count-dependent by design: stderr only.
  std::fprintf(stderr,
               "parallel_cluster: sim-threads=%u wall=%.3fs events=%llu "
               "(%.2fM events/s)\n",
               sim_threads, wall_s, static_cast<unsigned long long>(events),
               wall_s > 0 ? static_cast<double>(events) / wall_s / 1e6 : 0.0);
  if (!wall_out.empty() &&
      !bench::write_wall_out(wall_out, sim_threads, wall_s, events)) {
    return 1;
  }

  if (min_events > 0 && events < min_events) {
    std::fprintf(stderr,
                 "parallel_cluster: executed %llu events < --min-events=%llu\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(min_events));
    return 3;
  }
  return lost ? 2 : 0;
}

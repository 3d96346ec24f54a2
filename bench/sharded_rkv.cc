// Sharded RKV scale-out acceptance driver: N consistent-hash Paxos
// groups (default 8, up to 32) of 3 replicas plus one standby group, a
// NIC hot-key cache fronting every leader, and a single open-loop
// generator multiplexing a MILLION logical clients (Zipf keys, diurnal
// rate swing), executed on the sharded conservative engine.  Mid-run the
// standby group is rebalanced onto the ring (two-phase freeze -> drain
// -> grant -> copy -> revoke) while a chaos schedule crashes replicas,
// kills the cache-bearing NICs, and partitions a leader.
//
// stdout is a pure function of (--seed, --duration-s, --groups) —
// byte-identical for every --sim-threads value — and ends with FNV
// digests of the chaos event log, every workload counter, and the full
// per-key acked-floor table, so CI diffs a whole run as one line.
// Wall-clock goes to stderr (and --wall-out as JSON); --json-out writes
// the deterministic headline metrics (the checked-in BENCH_shard.json).
//
//   sharded_rkv [--sim-threads=N] [--duration-s=S] [--seed=N]
//               [--groups=N] [--min-events=N] [--wall-out=<path>]
//               [--json-out=<path>]
//
// Exit codes: 0 ok; 1 --wall-out/--json-out could not be written; 2
// correctness violation (stale read, lost acked write, readback failure,
// or rebalance did not complete); 3 fewer engine events than
// --min-events; 4 SLO breach (cache hit rate < 50% or p99 over the
// floor).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/rkv/hot_cache.h"
#include "apps/rkv/rkv_actors.h"
#include "harness/acceptance.h"
#include "ipipe/shard.h"
#include "netsim/chaos.h"
#include "testbed/cluster.h"
#include "workloads/open_loop.h"

using namespace ipipe;

namespace {

constexpr int kReplicas = 3;

}  // namespace

int main(int argc, char** argv) {
  unsigned sim_threads = 1;
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  int groups = 8;
  std::uint64_t min_events = 0;
  std::string wall_out;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flag_value(argv[i], "--sim-threads")) {
      const long n = std::strtol(v, nullptr, 10);
      sim_threads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (const char* v = bench::flag_value(argv[i], "--duration-s")) {
      duration_s = std::strtod(v, nullptr);
    } else if (const char* v = bench::flag_value(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flag_value(argv[i], "--groups")) {
      groups = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = bench::flag_value(argv[i], "--min-events")) {
      min_events = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flag_value(argv[i], "--wall-out")) {
      wall_out = v;
    } else if (const char* v = bench::flag_value(argv[i], "--json-out")) {
      json_out = v;
    }
  }
  if (duration_s < 5.0) {
    std::fprintf(stderr, "sharded_rkv: --duration-s must be >= 5\n");
    return 1;
  }
  if (groups < 8 || groups > 32) {
    std::fprintf(stderr, "sharded_rkv: --groups must be in [8, 32]\n");
    return 1;
  }
  const int all_groups = groups + 1;  // one standby joins mid-run
  const int servers = all_groups * kReplicas;
  const auto shards = static_cast<std::uint32_t>(16 * all_groups);
  const Ns total = sec(duration_s);
  const Ns traffic_end = total - sec(duration_s * 0.25);
  // Early enough that the drain tail (an in-flight op can back off for
  // several seconds through a crash window before abandoning) plus the
  // grant/copy/revoke rounds land well inside the run.
  const Ns rebalance_at = total * 3 / 10;

  testbed::Cluster cluster(testbed::Layout::kDomainPerNode);
  cluster.set_threads(sim_threads);
  for (int i = 0; i < servers; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = true;
    cluster.add_server(spec);
  }

  // ---- ring + deployments -----------------------------------------------
  shard::ShardRing ring(shards);
  for (std::uint32_t g = 0; g < static_cast<std::uint32_t>(groups); ++g) {
    ring.add_group(g);
  }
  const shard::RouteTable table = ring.table(/*epoch=*/1);

  std::vector<workloads::ShardTarget> targets;
  std::vector<rkv::RkvDeployment> deployments;
  for (int g = 0; g < all_groups; ++g) {
    rkv::RkvParams params;
    params.replicas.clear();
    for (int r = 0; r < kReplicas; ++r) {
      params.replicas.push_back(static_cast<netsim::NodeId>(g * kReplicas + r));
    }
    params.enable_failover = true;
    params.heartbeat_period = msec(100);
    params.election_timeout_min = msec(250);
    params.election_timeout_max = msec(450);
    params.num_shards = shards;
    params.shard_epoch = table.epoch;
    params.owned_shards = table.shards_of(static_cast<std::uint32_t>(g));
    params.enable_hot_cache = true;
    workloads::ShardTarget target;
    for (int r = 0; r < kReplicas; ++r) {
      params.self_index = static_cast<std::size_t>(r);
      const auto d = rkv::deploy_rkv(
          cluster.server(static_cast<std::size_t>(g * kReplicas + r)).runtime(),
          params);
      params.peer_consensus_actor = d.consensus;
      if (r == 0) {
        target.consensus = d.consensus;
        target.cache = d.hot_cache;
      }
      deployments.push_back(d);
    }
    target.replicas = params.replicas;
    target.leader_hint = params.replicas[0];
    targets.push_back(std::move(target));
  }

  // ---- the million-client open loop ---------------------------------------
  workloads::OpenLoopParams wp;
  wp.clients = 1'000'000;
  wp.rate_rps = 20'000.0;
  wp.get_fraction = 0.90;
  wp.key_space = 50'000;
  wp.zipf_theta = 1.0;
  wp.value_len = 64;
  wp.diurnal_amplitude = 0.25;
  wp.diurnal_period = sec(duration_s / 2.0);
  wp.seed = seed;
  wp.retry_timeout = msec(80);
  // Bounds the rebalance drain tail: an op in flight at the freeze keeps
  // its retry budget, so drain can't finish until the slowest such op
  // resolves or abandons (~2.8s worst case at 6 retries with the 800ms
  // backoff cap — 10 retries would stretch that past 6s and push the
  // grant/copy/revoke rounds off the end of a 10s run).
  wp.max_retries = 6;
  auto& gen = cluster.add_open_loop(wp);
  gen.set_groups(targets);
  gen.set_route_table(table);
  gen.set_warmup(sec(duration_s * 0.1));

  // ---- chaos schedule -----------------------------------------------------
  // Cache-bearing NICs die mid-run (their queued invalidations die with
  // them — the freshness contract demands the post-restore cache refill
  // rather than resurrect), one follower and one leader crash, a leader
  // is partitioned from its followers, and a seeded random tail keeps
  // the pressure on until the quiesce window.
  auto chaos = cluster.make_chaos();
  netsim::FaultPlan plan;
  plan.crash(1, sec(2), msec(1500));                        // group 0 follower
  plan.nic_crash(0, total * 3 / 10, msec(800));             // group 0 cache NIC
  plan.nic_crash(3, total * 9 / 20, msec(800));             // group 1 cache NIC
  plan.crash(6, total * 1 / 2, msec(1200));                 // group 2 leader
  plan.partition({9}, {10, 11}, total * 11 / 20, msec(900));  // group 3 leader
  {
    netsim::FaultModel lossy;
    lossy.drop_prob = 0.005;
    lossy.corrupt_prob = 0.005;
    plan.link_fault(lossy, total * 3 / 5, msec(600));
    Rng prng(0x5AA3DEDULL + seed);
    Ns t = total / 4;
    while (t < traffic_end - sec(1)) {
      const auto g =
          static_cast<int>(prng.uniform_u64(static_cast<std::uint64_t>(groups)));
      const auto victim = static_cast<netsim::NodeId>(
          g * kReplicas + static_cast<int>(prng.uniform_u64(kReplicas)));
      if (prng.uniform_u64(3) == 0) {
        plan.nic_crash(victim, t,
                       msec(400) + static_cast<Ns>(prng.uniform_u64(msec(600))));
      } else {
        plan.crash(victim, t,
                   msec(500) + static_cast<Ns>(prng.uniform_u64(sec(1))));
      }
      t += sec(1) + static_cast<Ns>(prng.uniform_u64(sec(1)));
    }
  }
  chaos->execute(plan);

  // ---- run: traffic, mid-run rebalance, quiesce, readback audit ----------
  const auto wall_start = std::chrono::steady_clock::now();
  gen.start(traffic_end);
  cluster.run_until(rebalance_at);

  shard::ShardRing grown(shards);
  for (std::uint32_t g = 0; g < static_cast<std::uint32_t>(all_groups); ++g) {
    grown.add_group(g);
  }
  bool rebalanced = false;
  gen.start_rebalance(grown.table(/*epoch=*/2), [&] { rebalanced = true; });

  cluster.run_until(traffic_end + sec(1));
  gen.issue_readback(wp.key_space);
  cluster.run_until(total);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // ---- deterministic report (identical for every --sim-threads) ----------
  const std::uint64_t events = cluster.engine().executed();
  std::printf("# sharded_rkv seed=%llu duration=%.0fs groups=%d+1 servers=%d "
              "clients=%llu\n",
              static_cast<unsigned long long>(seed), duration_s, groups,
              servers, static_cast<unsigned long long>(wp.clients));
  std::printf("events=%llu rounds=%llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(cluster.engine().rounds()));
  std::printf("net frames=%llu delivered=%llu dropped=%llu corrupted=%llu\n",
              static_cast<unsigned long long>(cluster.net().frames_sent()),
              static_cast<unsigned long long>(cluster.net().frames_delivered()),
              static_cast<unsigned long long>(cluster.net().frames_dropped()),
              static_cast<unsigned long long>(cluster.net().frames_corrupted()));
  std::printf(
      "ops sent=%llu completed=%llu gets=%llu puts=%llu acked=%llu "
      "retx=%llu redirects=%llu wrong-shard=%llu errors=%llu abandoned=%llu\n",
      static_cast<unsigned long long>(gen.sent()),
      static_cast<unsigned long long>(gen.completed()),
      static_cast<unsigned long long>(gen.gets_sent()),
      static_cast<unsigned long long>(gen.puts_sent()),
      static_cast<unsigned long long>(gen.acked_writes()),
      static_cast<unsigned long long>(gen.retransmits()),
      static_cast<unsigned long long>(gen.notleader_redirects()),
      static_cast<unsigned long long>(gen.wrong_shard_retries()),
      static_cast<unsigned long long>(gen.server_errors()),
      static_cast<unsigned long long>(gen.abandoned_writes()));
  std::printf("clients distinct=%llu p50=%lluns p99=%lluns\n",
              static_cast<unsigned long long>(gen.distinct_clients()),
              static_cast<unsigned long long>(gen.latencies().p50()),
              static_cast<unsigned long long>(gen.latencies().p99()));

  std::uint64_t hits = 0, misses = 0, fills = 0, invals = 0, wipes = 0;
  for (const auto& d : deployments) {
    if (d.cache == nullptr) continue;
    hits += d.cache->hits();
    misses += d.cache->misses();
    fills += d.cache->fills();
    invals += d.cache->invals();
    wipes += d.cache->wipes();
  }
  // Client-visible cache service rate: the fraction of GETs answered
  // straight from NIC SRAM.  (hits/(hits+misses) would double-count
  // routing noise — a GET bounced off a follower's un-leased cache
  // registers a miss there before redirecting to the leader.)
  const double hit_rate =
      gen.gets_sent() > 0
          ? static_cast<double>(hits) / static_cast<double>(gen.gets_sent())
          : 0.0;
  std::printf("cache hits=%llu misses=%llu fills=%llu invals=%llu wipes=%llu "
              "hit-rate=%.4f\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(fills),
              static_cast<unsigned long long>(invals),
              static_cast<unsigned long long>(wipes), hit_rate);
  std::printf("rebalance done=%llu shards-moved-to-standby=%zu\n",
              static_cast<unsigned long long>(gen.rebalances_done()),
              gen.route_table().shards_of(static_cast<std::uint32_t>(groups))
                  .size());
  std::printf("checker stale=%llu lost=%llu readback-pending=%llu\n",
              static_cast<unsigned long long>(gen.stale_reads()),
              static_cast<unsigned long long>(gen.lost_acked()),
              static_cast<unsigned long long>(gen.readback_pending()));
  std::printf("chaos crashes=%llu restores=%llu partitions=%llu heals=%llu\n",
              static_cast<unsigned long long>(chaos->crashes()),
              static_cast<unsigned long long>(chaos->restores()),
              static_cast<unsigned long long>(chaos->partitions()),
              static_cast<unsigned long long>(chaos->heals()));

  std::uint64_t results = bench::kFnvBasis;
  for (const std::uint64_t v :
       {gen.sent(), gen.completed(), gen.gets_sent(), gen.puts_sent(),
        gen.acked_writes(), gen.retransmits(), gen.notleader_redirects(),
        gen.wrong_shard_retries(), gen.server_errors(),
        gen.abandoned_writes(), gen.distinct_clients(), gen.stale_reads(),
        gen.lost_acked(), gen.rebalances_done(), gen.latencies().p50(),
        gen.latencies().p99(), hits, misses, fills, invals, wipes}) {
    results = bench::fnv1a_u64(results, v);
  }
  // The whole acked-floor table: any divergence in commit order or copy
  // fidelity across thread counts lands in this digest.
  std::uint64_t floors = bench::kFnvBasis;
  for (std::uint32_t k = 0; k < wp.key_space; ++k) {
    floors = bench::fnv1a_u64(floors, gen.key_floor(k));
  }
  const std::uint64_t chaos_digest =
      bench::fnv1a_str(bench::kFnvBasis, chaos->event_log_text());
  std::printf("digest chaos=%016llx results=%016llx floors=%016llx\n",
              static_cast<unsigned long long>(chaos_digest),
              static_cast<unsigned long long>(results),
              static_cast<unsigned long long>(floors));

  // Wall-clock is thread-count-dependent by design: stderr only.
  std::fprintf(stderr,
               "sharded_rkv: sim-threads=%u wall=%.3fs events=%llu "
               "(%.2fM events/s)\n",
               sim_threads, wall_s, static_cast<unsigned long long>(events),
               wall_s > 0 ? static_cast<double>(events) / wall_s / 1e6 : 0.0);
  if (!wall_out.empty() &&
      !bench::write_wall_out(wall_out, sim_threads, wall_s, events)) {
    return 1;
  }
  // Deterministic metrics only — the artifact reproduces bit-for-bit.
  const auto write_metrics = [&](std::FILE* f) {
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"sharded_rkv\",\n"
        "  \"seed\": %llu, \"duration_s\": %.1f, \"groups\": %d,\n"
        "  \"clients\": %llu, \"events\": %llu,\n"
        "  \"completed\": %llu, \"acked_writes\": %llu,\n"
        "  \"stale_reads\": %llu, \"lost_acked\": %llu,\n"
        "  \"cache_hit_rate\": %.4f, \"cache_wipes\": %llu,\n"
        "  \"p50_ns\": %llu, \"p99_ns\": %llu,\n"
        "  \"rebalances\": %llu,\n"
        "  \"digests\": {\"chaos\": \"%016llx\", \"results\": \"%016llx\", "
        "\"floors\": \"%016llx\"}\n"
        "}\n",
        static_cast<unsigned long long>(seed), duration_s, groups,
        static_cast<unsigned long long>(wp.clients),
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(gen.completed()),
        static_cast<unsigned long long>(gen.acked_writes()),
        static_cast<unsigned long long>(gen.stale_reads()),
        static_cast<unsigned long long>(gen.lost_acked()),
        hit_rate, static_cast<unsigned long long>(wipes),
        static_cast<unsigned long long>(gen.latencies().p50()),
        static_cast<unsigned long long>(gen.latencies().p99()),
        static_cast<unsigned long long>(gen.rebalances_done()),
        static_cast<unsigned long long>(chaos_digest),
        static_cast<unsigned long long>(results),
        static_cast<unsigned long long>(floors));
  };
  if (!json_out.empty() &&
      !bench::write_output("json-out", json_out, write_metrics)) {
    return 1;
  }

  if (min_events > 0 && events < min_events) {
    std::fprintf(stderr,
                 "sharded_rkv: executed %llu events < --min-events=%llu\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(min_events));
    return 3;
  }
  const bool correct = gen.stale_reads() == 0 && gen.lost_acked() == 0 &&
                       gen.readback_pending() == 0 && rebalanced &&
                       gen.rebalances_done() == 1;
  if (!correct) {
    std::fprintf(stderr, "sharded_rkv: CORRECTNESS VIOLATION\n");
    return 2;
  }
  // p99 spans the chaos windows (a get to a leaderless group rides the
  // retry backoff until the election settles), so the floor is a storm
  // detector, not a healthy-path latency claim.
  const bool slo_ok = hit_rate >= 0.50 && gen.latencies().p99() <= sec(2);
  if (!slo_ok) {
    std::fprintf(stderr, "sharded_rkv: SLO breach (hit-rate=%.4f p99=%lluns)\n",
                 hit_rate,
                 static_cast<unsigned long long>(gen.latencies().p99()));
    return 4;
  }
  return 0;
}

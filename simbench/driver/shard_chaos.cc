// The sharded_rkv acceptance setup on the parallel engine, in two
// workloads.  Both run eight 3-replica Paxos groups plus a standby
// group, a NIC hot-key cache in front of every leader, one open-loop
// generator multiplexing 10^6 Zipf clients, a chaos plan and one live
// rebalance that moves shards onto the standby group.
//
//   shard_chaos        bench/sharded_rkv at --duration-s=8: its seeded
//                      chaos plan (replica crashes, cache-NIC crashes, a
//                      leader partition, a lossy window and a seeded
//                      random tail), horizon and checks.
//   shard_fixed_chaos  a 4.2 s scenario whose fault plan is the same for
//                      every seed, so only the traffic depends on the
//                      seed and its figures settle over seeds.
#include <memory>

#include "apps/rkv/hot_cache.h"
#include "apps/rkv/rkv_actors.h"
#include "ipipe/shard.h"
#include "layers.h"
#include "netsim/chaos.h"
#include "workloads/open_loop.h"

namespace simbench {

using namespace ipipe;

namespace {

constexpr int kReplicas = 3;
constexpr int kGroups = 8;
constexpr Ns kSlice = msec(100);

/// Virtual-time timeline of one scenario and its fault plan.
struct Scenario {
  Ns total;
  Ns warmup;
  Ns rebalance_at;
  Ns traffic_end;
  Ns readback_at;
  netsim::FaultPlan plan;
};

/// bench/sharded_rkv's scenario at --duration-s=8.
Scenario seeded_chaos(std::uint64_t seed) {
  constexpr double kDurationS = 8.0;
  Scenario sc;
  const Ns total = sec(kDurationS);
  sc.total = total;
  sc.warmup = sec(kDurationS * 0.1);
  sc.rebalance_at = total * 3 / 10;
  sc.traffic_end = total - sec(kDurationS * 0.25);
  sc.readback_at = sc.traffic_end + sec(1);
  netsim::FaultPlan& plan = sc.plan;
  plan.crash(1, sec(2), msec(1500));                          // g0 follower
  plan.nic_crash(0, total * 3 / 10, msec(800));               // g0 cache NIC
  plan.nic_crash(3, total * 9 / 20, msec(800));               // g1 cache NIC
  plan.crash(6, total * 1 / 2, msec(1200));                   // g2 leader
  plan.partition({9}, {10, 11}, total * 11 / 20, msec(900));  // g3 leader
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.005;
  lossy.corrupt_prob = 0.005;
  plan.link_fault(lossy, total * 3 / 5, msec(600));
  Rng prng(0x5AA3DEDULL + seed);
  for (Ns t = total / 4; t < sc.traffic_end - sec(1);) {
    const auto g = static_cast<int>(prng.uniform_u64(kGroups));
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
  return sc;
}

/// A scenario of 4.2 s whose fault plan is the same for every seed: the
/// fixed part of seeded_chaos's plan (a follower crash, two cache-NIC
/// crashes, a leader crash, a leader partition, a lossy window) without
/// the seeded tail, at shorter times.  The rebalance starts before the
/// faults; it completes at about 3.6 s, so traffic runs until 3.4 s and
/// the readback starts after the rebalance.
Scenario fixed_chaos() {
  Scenario sc;
  sc.total = msec(4200);
  sc.warmup = msec(200);
  sc.rebalance_at = msec(400);
  sc.traffic_end = msec(3400);
  sc.readback_at = msec(3700);
  netsim::FaultPlan& plan = sc.plan;
  plan.crash(1, msec(800), msec(600));                     // g0 follower
  plan.nic_crash(0, msec(1000), msec(400));                // g0 cache NIC
  plan.nic_crash(3, msec(1300), msec(400));                // g1 cache NIC
  plan.crash(6, msec(1600), msec(600));                    // g2 leader
  plan.partition({9}, {10, 11}, msec(2000), msec(450));    // g3 leader
  netsim::FaultModel lossy;
  lossy.drop_prob = 0.005;
  lossy.corrupt_prob = 0.005;
  plan.link_fault(lossy, msec(2400), msec(300));
  return sc;
}

RepResult run_sharded(const RunOpts& o, Spans& spans, Scenario sc) {
  RepResult r;
  r.label = o.label;
  r.seed = o.seed;
  r.threads = o.threads;

  constexpr int kAllGroups = kGroups + 1;
  constexpr int kServers = kAllGroups * kReplicas;
  constexpr auto kShards = static_cast<std::uint32_t>(16 * kAllGroups);
  const Ns total = sc.total;
  const Ns traffic_end = sc.traffic_end;
  const Ns warmup = sc.warmup;
  const Ns rebalance_at = sc.rebalance_at;
  const Ns readback_at = sc.readback_at;

  // Declared before the cluster: the generator's hooks write to these.
  LatencyTap tap(warmup, traffic_end);
  std::uint64_t client_sent = 0;
  bool rebalanced = false;

  const auto t_setup = WallClock::now();
  const int s_setup = spans.begin("setup");
  int s = spans.begin("setup.testbed");
  auto t = WallClock::now();
  auto cluster = std::make_unique<testbed::ParallelCluster>();
  cluster->set_threads(o.threads);
  std::vector<testbed::ServerNode*> servers;
  for (int i = 0; i < kServers; ++i) {
    testbed::ServerSpec spec;
    spec.ipipe.supervise = true;
    servers.push_back(&cluster->add_server(spec));
  }
  r.testbed_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.apps");
  t = WallClock::now();
  shard::ShardRing ring(kShards);
  for (std::uint32_t g = 0; g < kGroups; ++g) ring.add_group(g);
  const shard::RouteTable table = ring.table(/*epoch=*/1);
  std::vector<workloads::ShardTarget> targets;
  std::vector<rkv::RkvDeployment> deployments;
  for (int g = 0; g < kAllGroups; ++g) {
    rkv::RkvParams params;
    params.replicas.clear();
    for (int i = 0; i < kReplicas; ++i) {
      params.replicas.push_back(static_cast<netsim::NodeId>(g * kReplicas + i));
    }
    params.enable_failover = true;
    params.heartbeat_period = msec(100);
    params.election_timeout_min = msec(250);
    params.election_timeout_max = msec(450);
    params.num_shards = kShards;
    params.shard_epoch = table.epoch;
    params.owned_shards = table.shards_of(static_cast<std::uint32_t>(g));
    params.enable_hot_cache = true;
    workloads::ShardTarget target;
    for (int i = 0; i < kReplicas; ++i) {
      params.self_index = static_cast<std::size_t>(i);
      const auto d = rkv::deploy_rkv(
          servers[static_cast<std::size_t>(g * kReplicas + i)]->runtime(),
          params);
      params.peer_consensus_actor = d.consensus;
      if (i == 0) {
        target.consensus = d.consensus;
        target.cache = d.hot_cache;
      }
      deployments.push_back(d);
    }
    target.replicas = params.replicas;
    target.leader_hint = params.replicas[0];
    targets.push_back(std::move(target));
  }
  r.apps_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.workloads");
  t = WallClock::now();
  workloads::OpenLoopParams wp;
  wp.clients = 1'000'000;
  wp.rate_rps = 20'000.0;
  wp.get_fraction = 0.90;
  wp.key_space = 50'000;
  wp.zipf_theta = 1.0;
  wp.value_len = 64;
  wp.diurnal_amplitude = 0.25;
  wp.diurnal_period = total / 2;
  wp.seed = o.seed;
  wp.retry_timeout = msec(80);
  wp.max_retries = 6;
  auto& gen = cluster->add_open_loop(wp);
  gen.set_groups(targets);
  gen.set_route_table(table);
  gen.set_warmup(warmup);
  sim::Simulation& client_sim = cluster->client_sim();
  gen.set_on_issue([&](const netsim::Packet&) { ++client_sent; });
  gen.add_on_reply([&](const netsim::Packet& pkt) {
    tap.on_reply(gen.completed(), client_sim.now(), pkt.created_at);
  });
  auto chaos = cluster->make_chaos();
  chaos->execute(sc.plan);
  r.workloads_s = seconds_since(t);
  spans.end(s);
  spans.end(s_setup);
  r.setup_s = seconds_since(t_setup);
  if (o.setup_only) return r;

  // ---- timed run: traffic, live rebalance, quiesce, readback ------------
  sim::ParallelSimulation& engine = cluster->engine();
  GaugeSampler gauges;
  double busy_at_warmup = 0.0;
  double busy_at_end = 0.0;
  shard::ShardRing grown(kShards);
  for (std::uint32_t g = 0; g < kAllGroups; ++g) grown.add_group(g);

  const int s_run = spans.begin("run");
  const auto t_run = WallClock::now();
  gen.start(traffic_end);
  auto advance = [&](Ns until) {
    cluster->run_until(until);
    if (until == warmup) busy_at_warmup = host_busy_ns(servers);
    if (until == traffic_end) busy_at_end = host_busy_ns(servers);
    if (until == rebalance_at) {
      gen.start_rebalance(grown.table(/*epoch=*/2), [&] { rebalanced = true; });
    }
    if (until == readback_at) gen.issue_readback(wp.key_space);
  };
  auto events = [&] { return engine.executed(); };
  auto done = [&] { return gen.completed(); };
  auto sample = [&] { gauges.sample(servers); };
  run_slices(spans, r, 0, traffic_end, kSlice, advance, events, done, sample);
  const int s_drain = spans.begin("drain");
  run_slices(spans, r, traffic_end, total, kSlice, advance, events, done,
             sample);
  spans.end(s_drain);
  r.wall_s = seconds_since(t_run);
  spans.end(s_run, {{"events", static_cast<double>(engine.executed())},
                    {"threads", static_cast<double>(o.threads)}});

  // ---- results -------------------------------------------------------
  r.events = engine.executed();
  r.sent = client_sent;
  r.completed = gen.completed();
  r.failed = client_sent - gen.completed();
  r.window_s = to_sec(traffic_end - warmup);
  r.completed_in_window = tap.completed_in_window();
  r.host_busy_ns_in_window = busy_at_end - busy_at_warmup;

  add_layer_counters(r, servers, cluster->net(), total, gauges);
  std::uint64_t stalled = 0, handoffs = 0;
  for (sim::DomainId dom = 0; dom < engine.domain_count(); ++dom) {
    const sim::DomainStats st = engine.stats(dom);
    stalled += st.stalled_windows;
    handoffs += st.handoffs_out;
  }
  const auto rounds = engine.rounds();
  r.counters.emplace_back("sim.rounds", static_cast<double>(rounds));
  r.counters.emplace_back(
      "sim.events_per_round",
      rounds ? static_cast<double>(r.events) / static_cast<double>(rounds) : 0);
  r.counters.emplace_back("sim.stalled_windows", static_cast<double>(stalled));
  r.counters.emplace_back("sim.handoffs", static_cast<double>(handoffs));

  std::uint64_t hits = 0, misses = 0, fills = 0, invals = 0, wipes = 0;
  double flushes = 0.0;
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const auto& d = deployments[i];
    if (const auto* mt = dynamic_cast<const rkv::MemtableActor*>(
            servers[i]->runtime().find_actor(d.memtable))) {
      flushes += static_cast<double>(mt->flushes());
    }
    if (d.cache == nullptr) continue;
    hits += d.cache->hits();
    misses += d.cache->misses();
    fills += d.cache->fills();
    invals += d.cache->invals();
    wipes += d.cache->wipes();
  }
  r.counters.emplace_back("rkv.memtable_flushes", flushes);
  r.counters.emplace_back(
      "rkv.cache_hit_ratio",
      hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                    : 0.0);
  r.counters.emplace_back("rkv.cache_invals", static_cast<double>(invals));
  r.counters.emplace_back("rkv.cache_wipes", static_cast<double>(wipes));
  r.counters.emplace_back("client.retransmits",
                          static_cast<double>(gen.retransmits()));
  r.counters.emplace_back("client.redirects",
                          static_cast<double>(gen.notleader_redirects()));
  r.counters.emplace_back("client.wrong_shard_retries",
                          static_cast<double>(gen.wrong_shard_retries()));
  r.counters.emplace_back("client.abandoned",
                          static_cast<double>(gen.abandoned_writes()));

  // ---- checks: the online checkers and the rebalance ---------------------
  const int s_verify = spans.begin("verify");
  r.checks.emplace_back("stale_reads_eq_0", gen.stale_reads() == 0);
  r.checks.emplace_back("lost_acked_eq_0", gen.lost_acked() == 0);
  r.checks.emplace_back("readback_pending_eq_0", gen.readback_pending() == 0);
  r.checks.emplace_back("rebalance_completed",
                        rebalanced && gen.rebalances_done() == 1);
  r.checks.emplace_back("completed_le_sent", gen.completed() <= client_sent);
  spans.end(s_verify);

  // The digest covers only simulated results, so it is identical for any
  // engine thread count.
  const int s_digest = spans.begin("digest");
  Digest d;
  d.add(chaos->event_log_text());
  for (const std::uint64_t v :
       {r.events, client_sent, gen.sent(), gen.completed(),
        gen.acked_writes(), gen.retransmits(), gen.notleader_redirects(),
        gen.wrong_shard_retries(), gen.abandoned_writes(), gen.stale_reads(),
        gen.lost_acked(), gen.rebalances_done(), hits, misses, fills, invals,
        wipes, r.completed_in_window,
        static_cast<std::uint64_t>(r.host_busy_ns_in_window)}) {
    d.add(v);
  }
  for (std::uint32_t k = 0; k < wp.key_space; ++k) d.add(gen.key_floor(k));
  for (const std::uint64_t v : tap.samples()) d.add(v);
  r.digest = d.hex();
  r.latency = summarize_latencies(std::move(tap.samples()));
  spans.end(s_digest);
  return r;
}

}  // namespace

RepResult run_shard_chaos(const RunOpts& o, Spans& spans) {
  return run_sharded(o, spans, seeded_chaos(o.seed));
}

RepResult run_shard_fixed_chaos(const RunOpts& o, Spans& spans) {
  return run_sharded(o, spans, fixed_chaos());
}

}  // namespace simbench

// rkv_paxos: the paper's own application path.  Three RKV replicas
// (Multi-Paxos + LSM) on the sequential testbed::Cluster in iPipe mode,
// CN2350 / 10GbE, 512 B frames, the §5.1 KV mix (95/5 read/write,
// Zipf 0.99 over 100k keys) offered as an open-loop Poisson stream at
// 300k req/s.  The horizon runs past the first memtable flush on every
// replica.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "apps/rkv/rkv_actors.h"
#include "layers.h"
#include "linearize_check.h"
#include "verify/history.h"
#include "verify/linearize.h"
#include "workloads/app_workloads.h"

namespace simbench {

using namespace ipipe;

namespace {

constexpr double kRateRps = 300'000.0;
constexpr Ns kWarmup = msec(50);
constexpr Ns kTrafficEnd = msec(700);
constexpr Ns kDrainEnd = msec(800);
constexpr Ns kSlice = msec(10);
constexpr std::uint64_t kKeys = 100'000;
/// The linearizability checker sees the hottest keys (ids below
/// kHotKeys: Zipf rank 0 is the most popular) and a seeded one in
/// kSampleOneIn of the rest, so every seed checks a history of the same
/// popularity profile and size.
constexpr std::uint64_t kHotKeys = 4;
constexpr std::uint64_t kSampleOneIn = 64;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

RepResult run_rkv_paxos(const RunOpts& o, Spans& spans) {
  RepResult r;
  r.label = o.label;
  r.seed = o.seed;
  r.threads = 1;

  // Declared before the cluster: both outlive the client's hooks.
  LatencyTap tap(kWarmup, kTrafficEnd);
  std::unique_ptr<verify::HistoryRecorder> history;

  const auto t_setup = WallClock::now();
  const int s_setup = spans.begin("setup");
  int s = spans.begin("setup.testbed");
  auto t = WallClock::now();
  auto cluster = std::make_unique<testbed::Cluster>();
  std::vector<testbed::ServerNode*> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(&cluster->add_server(testbed::ServerSpec{}));
  }
  r.testbed_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.apps");
  t = WallClock::now();
  rkv::RkvParams params;
  params.replicas = {0, 1, 2};
  std::vector<rkv::RkvDeployment> deployments;
  for (std::size_t i = 0; i < 3; ++i) {
    params.self_index = i;
    deployments.push_back(rkv::deploy_rkv(servers[i]->runtime(), params));
  }
  r.apps_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.workloads");
  t = WallClock::now();
  workloads::KvWorkloadParams wl;
  wl.server = 0;
  wl.consensus_actor = deployments[0].consensus;
  wl.frame_size = 512;
  wl.num_keys = kKeys;
  auto& client = cluster->add_client(10.0, workloads::kv_workload(wl), o.seed);
  history = std::make_unique<verify::HistoryRecorder>(cluster->sim());
  const std::uint64_t salt = mix(o.seed + 0x5A4D);
  history->set_kv_key_filter([salt](const std::string& key) {
    // workloads::make_key pads the decimal id with leading 'k's.
    const std::uint64_t id =
        std::strtoull(key.c_str() + key.find_first_not_of('k'), nullptr, 10);
    return id < kHotKeys || mix(id ^ salt) % kSampleOneIn == 0;
  });
  history->hook_rkv_client(client);
  sim::Simulation& sim = cluster->sim();
  client.add_on_reply([&](const netsim::Packet& pkt) {
    tap.on_reply(client.completed(), sim.now(), pkt.created_at);
  });
  client.set_warmup(kWarmup);
  client.start_open_loop(kRateRps, kTrafficEnd, /*poisson=*/true);
  r.workloads_s = seconds_since(t);
  spans.end(s);
  spans.end(s_setup);
  r.setup_s = seconds_since(t_setup);
  if (o.setup_only) return r;

  // ---- timed run -----------------------------------------------------
  GaugeSampler gauges;
  double busy_at_warmup = 0.0;
  double busy_at_end = 0.0;
  const int s_run = spans.begin("run");
  const auto t_run = WallClock::now();
  auto advance = [&](Ns until) {
    cluster->run_until(until);
    if (until == kWarmup) busy_at_warmup = host_busy_ns(servers);
    if (until == kTrafficEnd) busy_at_end = host_busy_ns(servers);
  };
  auto events = [&] { return sim.executed(); };
  auto done = [&] { return client.completed(); };
  auto sample = [&] { gauges.sample(servers); };
  run_slices(spans, r, 0, kTrafficEnd, kSlice, advance, events, done, sample);
  const int s_drain = spans.begin("drain");
  run_slices(spans, r, kTrafficEnd, kDrainEnd, kSlice, advance, events, done,
             sample);
  spans.end(s_drain);
  r.wall_s = seconds_since(t_run);
  spans.end(s_run, {{"events", static_cast<double>(sim.executed())}});

  // ---- results -------------------------------------------------------
  r.events = sim.executed();
  r.sent = client.sent();
  r.completed = client.completed();
  r.failed = client.abandoned() + client.expired() + client.inflight();
  r.window_s = to_sec(kTrafficEnd - kWarmup);
  r.completed_in_window = tap.completed_in_window();
  r.host_busy_ns_in_window = busy_at_end - busy_at_warmup;

  add_layer_counters(r, servers, cluster->net(), sim.now(), gauges);
  double flushes = 0.0;
  bool every_replica_flushed = true;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* mt = dynamic_cast<const rkv::MemtableActor*>(
        servers[i]->runtime().find_actor(deployments[i].memtable));
    const double f = mt != nullptr ? static_cast<double>(mt->flushes()) : 0.0;
    flushes += f;
    every_replica_flushed = every_replica_flushed && f >= 1.0;
  }
  r.counters.emplace_back("rkv.memtable_flushes", flushes);
  r.counters.emplace_back("client.retransmits",
                          static_cast<double>(client.retransmits()));
  r.counters.emplace_back("client.abandoned",
                          static_cast<double>(client.abandoned()));

  // ---- checks (outside the timed window) -------------------------------
  const int s_verify = spans.begin("verify");
  t = WallClock::now();
  const KvCheck lin = check_kv_history(history->kv());
  const double check_s = seconds_since(t);
  spans.end(s_verify,
            {{"ops", static_cast<double>(history->kv().ops.size())},
             {"states", static_cast<double>(lin.states_explored)}});
  if (!lin.ok || lin.inconclusive) {
    std::fprintf(stderr, "rkv_paxos seed %llu:\n%s",
                 static_cast<unsigned long long>(o.seed), lin.detail.c_str());
  }
  // verify::check_kv_linearizable judges the same history with the same
  // model; its verdict is recorded, not gated on (see linearize_check.h).
  const verify::LinearizeResult library =
      verify::check_kv_linearizable(history->kv());
  r.counters.emplace_back("verify.check_s", check_s);
  r.counters.emplace_back("verify.ops_checked",
                          static_cast<double>(history->kv().ops.size()));
  r.counters.emplace_back("verify.states_explored",
                          static_cast<double>(lin.states_explored));
  r.counters.emplace_back(
      "verify.library_checker_disagrees",
      (library.ok && !library.inconclusive) != (lin.ok && !lin.inconclusive)
          ? 1.0
          : 0.0);
  r.checks.emplace_back("linearizable", lin.ok && !lin.inconclusive);
  r.checks.emplace_back("sent_eq_completed_plus_failed",
                        r.sent == r.completed + r.failed);
  r.checks.emplace_back("horizon_covers_first_flush_on_every_replica",
                        every_replica_flushed);

  // The digest covers simulated results only, not the checker's counts.
  const int s_digest = spans.begin("digest");
  Digest d;
  for (const std::uint64_t v :
       {r.events, r.sent, r.completed, r.failed, r.completed_in_window,
        static_cast<std::uint64_t>(r.host_busy_ns_in_window),
        static_cast<std::uint64_t>(flushes)}) {
    d.add(v);
  }
  for (const std::uint64_t v : tap.samples()) d.add(v);
  r.digest = d.hex();
  r.latency = summarize_latencies(std::move(tap.samples()));
  spans.end(s_digest);
  return r;
}

}  // namespace simbench

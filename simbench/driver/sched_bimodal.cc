// sched_bimodal: the Fig. 16(b) hybrid-scheduler point.  One CN2350
// running one light actor (exponential, mean 7 us) and two bimodal
// actors (35/60 us), migration on, offered Poisson load at 0.9 of the
// Fig. 16 capacity formula.  No application code runs: host time goes
// to the event engine and the ipipe runtime, simulated time to the
// FCFS/DRR scheduler and the migrator.
#include <functional>
#include <memory>

#include "ipipe/runtime.h"
#include "layers.h"

namespace simbench {

using namespace ipipe;

namespace {

constexpr std::uint16_t kReq = 1;
constexpr std::uint16_t kRep = 2;
constexpr double kLoad = 0.9;
constexpr double kB1Us = 35.0;
constexpr double kB2Us = 60.0;
constexpr double kLightUs = kB1Us / 5.0;
constexpr Ns kWarmup = msec(50);
constexpr Ns kTrafficEnd = msec(2050);
constexpr Ns kDrainEnd = msec(2100);
constexpr Ns kSlice = msec(10);

/// Actor whose handler cost follows a fixed distribution.
class DistActor final : public Actor {
 public:
  using CostFn = std::function<Ns(Rng&)>;
  explicit DistActor(CostFn cost) : Actor("dist"), cost_(std::move(cost)) {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(cost_(env.rng()));
    env.reply(req, kRep, {});
  }

 private:
  CostFn cost_;
};

}  // namespace

RepResult run_sched_bimodal(const RunOpts& o, Spans& spans) {
  RepResult r;
  r.label = o.label;
  r.seed = o.seed;
  r.threads = 1;
  LatencyTap tap(kWarmup, kTrafficEnd);
  std::uint64_t wrong_type_replies = 0;

  const auto t_setup = WallClock::now();
  const int s_setup = spans.begin("setup");
  int s = spans.begin("setup.testbed");
  auto t = WallClock::now();
  auto cluster = std::make_unique<testbed::Cluster>();
  testbed::ServerSpec spec;
  spec.nic = nic::liquidio_cn2350();
  spec.ipipe.policy = SchedPolicy::kHybrid;
  spec.ipipe.enable_migration = true;
  spec.ipipe.migration_cooldown = msec(4);
  spec.ipipe.tail_thresh = usec(kB2Us * 1.3);
  spec.ipipe.mean_thresh = usec((kB1Us + kB2Us) / 2.0 * 1.6);
  testbed::ServerNode& server = cluster->add_server(spec);
  std::vector<testbed::ServerNode*> servers{&server};
  r.testbed_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.apps");
  t = WallClock::now();
  std::vector<DistActor::CostFn> costs;
  costs.emplace_back([](Rng& rng) { return usec(rng.exponential(kLightUs)); });
  for (int i = 0; i < 2; ++i) {
    costs.emplace_back(
        [](Rng& rng) { return usec(rng.bernoulli(0.5) ? kB1Us : kB2Us); });
  }
  std::vector<ActorId> actors;
  for (auto& fn : costs) {
    actors.push_back(server.runtime().register_actor(
        std::make_unique<DistActor>(std::move(fn))));
  }
  r.apps_s = seconds_since(t);
  spans.end(s);

  s = spans.begin("setup.workloads");
  t = WallClock::now();
  // The Fig. 16 capacity formula: every handler core busy with the mix
  // mean plus the per-packet forwarding tax.
  const double mix_mean_us = (kLightUs + (kB1Us + kB2Us) / 2.0 * 2.0) / 3.0;
  const double fwd_us =
      static_cast<double>(spec.nic.forwarding.cost(512) +
                          spec.nic.sw_shuffle_cost) / 1000.0;
  const double capacity_rps =
      static_cast<double>(spec.nic.cores) * 1e6 / (mix_mean_us + fwd_us);
  auto& client = cluster->add_client(
      spec.nic.link_gbps,
      [actors](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
        auto pkt = pool.make();
        pkt->dst = 0;
        pkt->dst_actor = actors[seq % actors.size()];
        pkt->msg_type = kReq;
        pkt->frame_size = 512;
        return pkt;
      },
      o.seed);
  sim::Simulation& sim = cluster->sim();
  client.add_on_reply([&](const netsim::Packet& pkt) {
    tap.on_reply(client.completed(), sim.now(), pkt.created_at);
    if (pkt.msg_type != kRep) ++wrong_type_replies;
  });
  client.set_warmup(kWarmup);
  client.start_open_loop(capacity_rps * kLoad, kTrafficEnd, /*poisson=*/true);
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

  r.events = sim.executed();
  r.sent = client.sent();
  r.completed = client.completed();
  r.failed = client.abandoned() + client.expired() + client.inflight();
  r.window_s = to_sec(kTrafficEnd - kWarmup);
  r.completed_in_window = tap.completed_in_window();
  r.host_busy_ns_in_window = busy_at_end - busy_at_warmup;
  add_layer_counters(r, servers, cluster->net(), sim.now(), gauges);
  r.counters.emplace_back("client.retransmits",
                          static_cast<double>(client.retransmits()));
  r.counters.emplace_back("client.abandoned",
                          static_cast<double>(client.abandoned()));

  const int s_verify = spans.begin("verify");
  r.checks.emplace_back("sent_eq_completed_plus_failed",
                        r.sent == r.completed + r.failed);
  // The client neither retries nor times out, so every request is
  // answered at most once, by its actor's reply type: a duplicate, an
  // unsolicited or a mistyped reply is a runtime fault.
  r.checks.emplace_back("no_unmatched_replies", tap.unmatched() == 0);
  r.checks.emplace_back("every_reply_is_kRep", wrong_type_replies == 0);
  spans.end(s_verify);

  const int s_digest = spans.begin("digest");
  Digest d;
  for (const std::uint64_t v :
       {r.events, r.sent, r.completed, r.failed, r.completed_in_window,
        static_cast<std::uint64_t>(r.host_busy_ns_in_window),
        server.runtime().downgrades(), server.runtime().push_migrations(),
        server.runtime().pull_migrations()}) {
    d.add(v);
  }
  for (const std::uint64_t v : tap.samples()) d.add(v);
  r.digest = d.hex();
  r.latency = summarize_latencies(std::move(tap.samples()));
  spans.end(s_digest);
  return r;
}

}  // namespace simbench

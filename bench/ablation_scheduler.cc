// Ablation study: sensitivity of the iPipe runtime to its tuning knobs
// (DESIGN.md design-choice index).  One bimodal high-dispersion workload
// at 0.8 load on the 10GbE CN2350; each table sweeps one knob with the
// others at their defaults.
//   (a) tail_thresh      — when do downgrades start paying off?
//   (b) migration_cooldown — placement-change damping vs responsiveness
//   (c) mgmt_period      — management-core bookkeeping cadence
//   (d) EWMA alpha (hysteresis factor) — §3.2.2's α
#include <cstdio>

#include "common/table.h"
#include "harness/sweep.h"
#include "harness/trace_opts.h"
#include "ipipe/runtime.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

using namespace ipipe;

namespace {

/// --trace-out= captures the first sweep point (defaults-like config).
/// The traced point is chosen by index, so a parallel sweep captures the
/// exact same run as the sequential one.
bench::TraceOpts g_trace;

class BimodalActor final : public Actor {
 public:
  BimodalActor() : Actor("bimodal") {}
  void handle(ActorEnv& env, const netsim::Packet& req) override {
    env.charge(usec(env.rng().bernoulli(0.5) ? 12.0 : 60.0));
    env.reply(req, 2, {});
  }
};

struct Outcome {
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t downgrades = 0;
  std::uint64_t migrations = 0;
};

Outcome run_with(IPipeConfig cfg, bool traced,
                 bench::PointPerf* perf = nullptr) {
  testbed::Cluster cluster;
  testbed::ServerSpec spec;
  spec.ipipe = cfg;
  if (traced) g_trace.apply(spec.ipipe);
  auto& server = cluster.add_server(spec);
  std::vector<ActorId> actors;
  for (int i = 0; i < 3; ++i) {
    actors.push_back(
        server.runtime().register_actor(std::make_unique<BimodalActor>()));
  }
  const double mix_us = 36.0 + 2.0;  // service + forwarding tax
  const double rate = 0.8 * 12e6 / mix_us;
  auto& client = cluster.add_client(10.0, [&, actors](std::uint64_t seq, Rng&, netsim::PacketPool& pool) {
    auto pkt = pool.make();
    pkt->dst = 0;
    pkt->dst_actor = actors[seq % actors.size()];
    pkt->msg_type = 1;
    pkt->frame_size = 512;
    return pkt;
  });
  client.set_warmup(msec(10));
  client.start_open_loop(rate, msec(50), true);
  cluster.run_until(msec(65));
  if (traced) {
    bench::write_cluster_trace(g_trace, cluster, "ablation/bimodal");
  }
  if (perf != nullptr) bench::fill_perf(*perf, cluster);

  Outcome out;
  out.p99_us = to_us(client.latencies().p99());
  out.mean_us = client.latencies().mean_ns() / 1000.0;
  out.downgrades = server.runtime().downgrades();
  out.migrations =
      server.runtime().push_migrations() + server.runtime().pull_migrations();
  return out;
}

struct KnobSweep {
  const char* title;
  const char* knob;
  std::vector<std::pair<std::string, IPipeConfig>> points;
};

void emit(const KnobSweep& sweep, const std::vector<Outcome>& outcomes,
          std::size_t& k) {
  std::printf("\nAblation: %s\n", sweep.title);
  TablePrinter table(
      {sweep.knob, "mean(us)", "p99(us)", "downgrades", "migrations"});
  for (const auto& [label, cfg] : sweep.points) {
    const Outcome& out = outcomes[k++];
    table.add_row({label, strf("%.1f", out.mean_us), strf("%.1f", out.p99_us),
                   strf("%llu", static_cast<unsigned long long>(out.downgrades)),
                   strf("%llu",
                        static_cast<unsigned long long>(out.migrations))});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  g_trace = bench::parse_trace_opts(argc, argv);
  const bench::SweepOpts sweep_opts = bench::parse_sweep_opts(argc, argv);
  IPipeConfig base;
  base.tail_thresh = usec(90);
  base.mean_thresh = usec(55);

  std::vector<KnobSweep> sweeps;
  {
    KnobSweep ks{"tail_thresh (downgrade trigger)", "tail_thresh", {}};
    for (const double us : {40.0, 70.0, 90.0, 150.0, 400.0}) {
      IPipeConfig cfg = base;
      cfg.tail_thresh = usec(us);
      ks.points.emplace_back(strf("%.0fus", us), cfg);
    }
    sweeps.push_back(std::move(ks));
  }
  {
    KnobSweep ks{"migration cooldown (placement damping)", "cooldown", {}};
    for (const double ms : {1.0, 4.0, 10.0, 25.0}) {
      IPipeConfig cfg = base;
      cfg.migration_cooldown = msec(ms);
      ks.points.emplace_back(strf("%.0fms", ms), cfg);
    }
    sweeps.push_back(std::move(ks));
  }
  {
    KnobSweep ks{"management-core cadence", "mgmt_period", {}};
    for (const double us : {5.0, 20.0, 80.0, 320.0}) {
      IPipeConfig cfg = base;
      cfg.mgmt_period = usec(us);
      ks.points.emplace_back(strf("%.0fus", us), cfg);
    }
    sweeps.push_back(std::move(ks));
  }
  {
    KnobSweep ks{"hysteresis factor alpha (§3.2.2)", "alpha", {}};
    for (const double alpha : {0.05, 0.15, 0.25, 0.5}) {
      IPipeConfig cfg = base;
      cfg.alpha = alpha;
      ks.points.emplace_back(strf("%.2f", alpha), cfg);
    }
    sweeps.push_back(std::move(ks));
  }

  // Flatten, compute every point through the sweep runner (parallel under
  // --jobs=N; the trace capture is pinned to point 0 so it lands on the
  // same run either way), then print the tables in order.
  struct Flat {
    std::size_t sweep_idx;
    const IPipeConfig* cfg;
    const std::string* label;
  };
  std::vector<Flat> flat;
  for (std::size_t si = 0; si < sweeps.size(); ++si) {
    for (const auto& [label, cfg] : sweeps[si].points) {
      flat.push_back({si, &cfg, &label});
    }
  }
  bench::SweepRunner runner(sweep_opts);
  const auto outcomes = runner.map(
      flat.size(), [&](std::size_t i, bench::PointPerf& perf) {
        perf.label = strf("%s=%s", sweeps[flat[i].sweep_idx].knob,
                          flat[i].label->c_str());
        const bool traced = g_trace.enabled() && i == 0;
        return run_with(*flat[i].cfg, traced, &perf);
      });
  std::size_t k = 0;
  for (const auto& ks : sweeps) emit(ks, outcomes, k);
  if (!runner.write_json("ablation_scheduler")) return 1;
  std::printf(
      "\nReading: very low tail thresholds downgrade everything (DRR "
      "dynamics + churn); very high ones never react.  Short cooldowns "
      "thrash placements; long ones react late.  The defaults sit on the "
      "flat part of each curve.\n");
  return 0;
}

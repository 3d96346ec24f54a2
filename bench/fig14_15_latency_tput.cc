// Figures 14 and 15: latency versus per-core throughput for the three
// applications (RTA, DT, RKV) under DPDK and iPipe, 512B requests, on
// 10GbE (Fig. 14) and 25GbE (Fig. 15).  Per-core throughput divides the
// measured request rate by the primary role's host cores used (§5.3).
// Also reports the P99 comparison at 90% of max throughput (§5.3 text).
//
// All (link, app, window, system) combinations are independent sims, so
// they are computed through the sweep runner (parallel under --jobs=N)
// and printed afterwards in the original order.
#include <cstdio>

#include "common/table.h"
#include "harness/app_harness.h"
#include "harness/sweep.h"

using namespace ipipe;
using namespace ipipe::bench;

namespace {

struct SweepPoint {
  App app;
  bool use_25g;
  unsigned outstanding;
  testbed::Mode mode;
  bool traced = false;
};

void print_sweep(App app, bool use_25g, const std::vector<RunResult>& results,
                 std::size_t& k) {
  std::printf("\n%s — %s, 512B, %sGbE: latency vs per-core throughput\n",
              use_25g ? "Figure 15" : "Figure 14", app_name(app),
              use_25g ? "25" : "10");
  TablePrinter table({"window", "sys", "tput(Kop/s)", "cores",
                      "per-core(Mop/s)", "avg lat(us)", "p99(us)"});
  struct Point {
    double per_core;
    double avg_us;
    double p99_us;
    double tput;
  };
  std::vector<Point> dpdk_pts;
  std::vector<Point> ipipe_pts;
  for (const unsigned outstanding : {1u, 4u, 16u, 48u}) {
    for (const auto mode : {testbed::Mode::kDpdk, testbed::Mode::kIPipe}) {
      const RunResult& result = results[k++];
      const double cores = std::max(result.host_cores[0], 0.05);
      const double per_core = result.throughput_rps / cores / 1e6;
      const double avg_us = result.latency.mean_ns() / 1000.0;
      const double p99_us = to_us(result.latency.p99());
      table.add_row({strf("%u", outstanding),
                     mode == testbed::Mode::kDpdk ? "DPDK" : "iPipe",
                     strf("%.1f", result.throughput_rps / 1e3),
                     strf("%.2f", cores), strf("%.3f", per_core),
                     strf("%.1f", avg_us), strf("%.1f", p99_us)});
      auto& pts = mode == testbed::Mode::kDpdk ? dpdk_pts : ipipe_pts;
      pts.push_back({per_core, avg_us, p99_us, result.throughput_rps});
      if (mode == testbed::Mode::kIPipe && outstanding == 48u) {
        const std::string chan = channel_summary(result);
        if (!chan.empty()) std::printf("  [%s @%u] %s\n", app_name(app),
                                       outstanding, chan.c_str());
      }
    }
  }
  table.print();

  // Low-load latency saving + peak per-core throughput ratio + P99 at
  // ~90% of max throughput.
  const double lat_saving = dpdk_pts.front().avg_us - ipipe_pts.front().avg_us;
  double dpdk_peak = 0.0;
  double ipipe_peak = 0.0;
  for (const auto& p : dpdk_pts) dpdk_peak = std::max(dpdk_peak, p.per_core);
  for (const auto& p : ipipe_pts) ipipe_peak = std::max(ipipe_peak, p.per_core);
  auto p99_near_peak = [](const std::vector<Point>& pts) {
    double max_tput = 0.0;
    for (const auto& p : pts) max_tput = std::max(max_tput, p.tput);
    double best = 0.0;
    for (const auto& p : pts) {
      if (p.tput >= 0.85 * max_tput && p.tput <= 0.97 * max_tput) {
        best = std::max(best, p.p99_us);
      }
    }
    return best > 0.0 ? best : pts.back().p99_us;
  };
  std::printf(
      "%s summary: low-load latency saving %.1fus; per-core throughput "
      "iPipe/DPDK = %.1fx; P99@~90%%: DPDK %.1fus vs iPipe %.1fus\n",
      app_name(app), lat_saving, ipipe_peak / std::max(dpdk_peak, 1e-9),
      p99_near_peak(dpdk_pts), p99_near_peak(ipipe_pts));
}

}  // namespace

int main(int argc, char** argv) {
  // Default: both sweeps (Fig. 14 on 10GbE, Fig. 15 on 25GbE); restrict
  // with --10g / --25g.
  bool run_10g = true;
  bool run_25g = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--25g") run_10g = false;
    if (std::string_view(argv[i]) == "--10g") run_25g = false;
  }
  // --trace-out= captures the first iPipe run at the deepest window.
  const TraceOpts trace = parse_trace_opts(argc, argv);
  const SweepOpts sweep_opts = parse_sweep_opts(argc, argv);
  SweepRunner runner(sweep_opts);

  // Flat point list in print order; the traced point is chosen here (by
  // position, not by execution order) so --jobs=N stays deterministic.
  std::vector<SweepPoint> points;
  for (const bool use_25g : {false, true}) {
    if ((use_25g && !run_25g) || (!use_25g && !run_10g)) continue;
    for (const App app : {App::kRta, App::kDt, App::kRkv}) {
      for (const unsigned outstanding : {1u, 4u, 16u, 48u}) {
        for (const auto mode :
             {testbed::Mode::kDpdk, testbed::Mode::kIPipe}) {
          points.push_back(SweepPoint{app, use_25g, outstanding, mode});
        }
      }
    }
  }
  if (trace.enabled()) {
    for (auto& pt : points) {
      if (pt.mode == testbed::Mode::kIPipe && pt.outstanding == 48u) {
        pt.traced = true;
        break;
      }
    }
  }

  const auto results = runner.map(
      points.size(), [&](std::size_t i, PointPerf& perf) {
        const SweepPoint& pt = points[i];
        perf.label = strf("%s %s %sg win=%u", app_name(pt.app),
                          mode_name(pt.mode), pt.use_25g ? "25" : "10",
                          pt.outstanding);
        RunConfig cfg;
        cfg.app = pt.app;
        cfg.mode = pt.mode;
        cfg.use_25g = pt.use_25g;
        cfg.frame_size = 512;
        cfg.outstanding = pt.outstanding;
        cfg.warmup = msec(10);
        cfg.duration = msec(40);
        if (pt.traced) cfg.trace = trace;
        RunResult result = run_app(cfg);
        perf.events = result.sim_events;
        perf.sim_seconds = result.sim_seconds;
        return result;
      });

  std::size_t k = 0;
  for (const bool use_25g : {false, true}) {
    if ((use_25g && !run_25g) || (!use_25g && !run_10g)) continue;
    for (const App app : {App::kRta, App::kDt, App::kRkv}) {
      print_sweep(app, use_25g, results, k);
    }
    std::printf(
        "\nPaper targets (%sGbE): per-core throughput gains %s; low-load "
        "latency reductions %s.\n",
        use_25g ? "25" : "10", use_25g ? "2.2x/2.9x/2.2x" : "2.3x/4.3x/4.2x",
        use_25g ? "5.4/28.0/12.5us" : "5.7/23.0/8.7us");
  }
  if (!runner.write_json("fig14_15_latency_tput")) return 1;
  return 0;
}

// SweepRunner determinism: results are ordered by point index regardless
// of worker interleaving, parallel execution computes exactly what the
// sequential run computes, and a simulated point re-run from the same
// seed reproduces its numbers bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "sim/simulation.h"
#include "testbed/cluster.h"
#include "workloads/app_workloads.h"

namespace ipipe::bench {
namespace {

TEST(SweepRunner, ResultsOrderedByIndex) {
  SweepOpts opts;
  opts.jobs = 4;
  SweepRunner runner(opts);
  const auto out = runner.map(
      std::size_t{16}, [](std::size_t i, PointPerf& perf) {
        perf.label = "p" + std::to_string(i);
        return i * i;
      });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  ASSERT_EQ(runner.points().size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(runner.points()[i].label, "p" + std::to_string(i));
  }
}

TEST(SweepRunner, AllPointsRunExactlyOnce) {
  SweepOpts opts;
  opts.jobs = 8;
  SweepRunner runner(opts);
  std::vector<std::atomic<int>> hits(64);
  runner.map(hits.size(), [&](std::size_t i, PointPerf&) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 0;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// One sim point: a small echo cluster whose result summarizes to a stable
// fingerprint (completed requests, executed events, p99).  Points build
// all of their own state from the index, which is the runner's
// determinism contract.
struct Fingerprint {
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  Ns p99 = 0;

  bool operator==(const Fingerprint& o) const {
    return completed == o.completed && events == o.events && p99 == o.p99;
  }
};

Fingerprint run_point(std::size_t index) {
  testbed::Cluster cluster;
  testbed::ServerSpec spec;
  auto& server = cluster.add_server(spec);

  class Echo final : public Actor {
   public:
    Echo() : Actor("echo") {}
    void handle(ActorEnv& env, const netsim::Packet& req) override {
      env.charge(usec(1));
      env.reply(req, 2, {});
    }
  };
  const ActorId id = server.runtime().register_actor(std::make_unique<Echo>());
  workloads::EchoWorkloadParams wl;
  wl.server = 0;
  wl.actor = id;
  wl.msg_type = 1;
  wl.frame_size = 256 + 64 * static_cast<std::uint32_t>(index % 4);
  auto& client = cluster.add_client(10.0, workloads::echo_workload(wl),
                                    /*seed=*/100 + index);
  client.start_closed_loop(4 + static_cast<unsigned>(index % 3), msec(2));
  cluster.run_until(msec(3));
  return Fingerprint{client.completed(), cluster.sim().executed(),
                     client.latencies().p99()};
}

TEST(SweepRunner, ParallelMatchesSequential) {
  constexpr std::size_t kPoints = 6;
  SweepOpts seq;
  seq.jobs = 1;
  SweepRunner seq_runner(seq);
  const auto a = seq_runner.map(
      kPoints, [](std::size_t i, PointPerf&) { return run_point(i); });

  SweepOpts par;
  par.jobs = 8;
  SweepRunner par_runner(par);
  const auto b = par_runner.map(
      kPoints, [](std::size_t i, PointPerf&) { return run_point(i); });

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SweepRunner, SameSeedDoubleRunIsIdentical) {
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run_point(i), run_point(i));
  }
}

TEST(SweepOpts, ParseJobsAndJsonPath) {
  std::string a0 = "bench";
  std::string a1 = "--jobs=6";
  std::string a2 = "--trace-out=ignored";
  std::string a3 = "--bench-json=/tmp/out.json";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data()};
  const SweepOpts opts = parse_sweep_opts(4, argv);
  EXPECT_EQ(opts.jobs, 6u);
  EXPECT_EQ(opts.bench_json, "/tmp/out.json");

  char* argv2[] = {a0.data()};
  const SweepOpts defaults = parse_sweep_opts(1, argv2);
  EXPECT_EQ(defaults.jobs, 1u);
  EXPECT_TRUE(defaults.bench_json.empty());
}

// A bench asked for --bench-json must learn that the file was not written
// (it then exits 1), rather than finish as if it had been.
TEST(SweepRunner, WriteJsonFailsWhenFileCannotBeOpened) {
  SweepOpts opts;
  opts.bench_json = ::testing::TempDir() + "no-such-dir/bench.json";
  SweepRunner runner(opts);
  (void)runner.map(2, [](std::size_t i, PointPerf& perf) {
    perf.label = "p" + std::to_string(i);
    return i;
  });
  EXPECT_FALSE(runner.write_json("sweep_test"));

  SweepRunner no_output(SweepOpts{});
  EXPECT_TRUE(no_output.write_json("sweep_test"));
}

}  // namespace
}  // namespace ipipe::bench

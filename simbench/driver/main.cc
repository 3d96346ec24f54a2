// simbench_driver: runs one benchmark workload in this process and writes
// its raw results as one JSON document.  simbench/run.py builds and
// invokes it, derives the metrics and prints them; run it directly only
// to debug a workload.
//
//   simbench_driver --workload=<rkv_paxos|sched_bimodal|shard_chaos|
//                               shard_fixed_chaos>
//                   --seed=N [--rep=I] [--setups=K] [--trace=0|1]
//                   --out=<file>
//
// Untraced (--trace=0): repetition I of seed N (repetition 0 uses N, the
// others derive their seed from N and I), then K set-up-only passes
// (--setups=K, default 0).  run.py starts one process per repetition, so
// each process's peak RSS is one repetition's; it asks for set-up-only
// passes only when a run has too few repetitions for a setup_s median.
// Traced (--trace=1): the seed-N repetition runs untraced, then again
// with spans on; the sharded workloads run their traced repetition at 2
// engine threads and again at 1.  Exit codes: 0 ran (the checks'
// verdicts are in the output), 1 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"

namespace {

using namespace simbench;

const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

using RunFn = RepResult (*)(const RunOpts&, Spans&);

/// Engine threads for the timed runs: the sharded workloads are the
/// ones on the parallel engine.
unsigned engine_threads(const std::string& workload) {
  return workload.rfind("shard_", 0) == 0 ? 2 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  std::uint64_t seed = 1;
  long rep = 0;
  long setups = 0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--workload")) {
      workload = v;
    } else if (const char* v = flag_value(argv[i], "--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value(argv[i], "--rep")) {
      rep = std::strtol(v, nullptr, 10);
    } else if (const char* v = flag_value(argv[i], "--setups")) {
      setups = std::strtol(v, nullptr, 10);
    } else if (const char* v = flag_value(argv[i], "--trace")) {
      trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = flag_value(argv[i], "--out")) {
      out_path = v;
    } else {
      std::fprintf(stderr, "simbench_driver: unknown argument %s\n", argv[i]);
      return 1;
    }
  }
  RunFn run = nullptr;
  if (workload == "rkv_paxos") run = run_rkv_paxos;
  if (workload == "sched_bimodal") run = run_sched_bimodal;
  if (workload == "shard_chaos") run = run_shard_chaos;
  if (workload == "shard_fixed_chaos") run = run_shard_fixed_chaos;
  if (run == nullptr || out_path.empty() || rep < 0 || setups < 0) {
    std::fprintf(stderr,
                 "usage: simbench_driver --workload=<rkv_paxos|sched_bimodal|"
                 "shard_chaos|shard_fixed_chaos> --seed=N [--rep=I] [--setups=K] "
                 "[--trace=0|1] --out=<file>\n");
    return 1;
  }
  const unsigned threads = engine_threads(workload);

  Spans off(false);
  Spans spans(trace);
  std::vector<RepResult> results;
  if (!trace) {
    const std::uint64_t s =
        seed + static_cast<std::uint64_t>(rep) * 0x9E3779B97F4A7C15ULL;
    results.push_back(run({s, threads, "untraced"}, off));
    for (long i = 0; i < setups; ++i) {
      results.push_back(run({s, threads, "setup", /*setup_only=*/true}, off));
    }
  } else {
    results.push_back(run({seed, threads, "untraced"}, off));
    auto traced = [&](unsigned n, const char* label) {
      const int id = spans.begin(label);
      results.push_back(run({seed, n, label}, spans));
      spans.end(id, {{"threads", static_cast<double>(n)}});
    };
    traced(threads, "traced");
    // The parallel engine's speedup: the same input on one thread.
    if (threads > 1) traced(1, "traced_1thread");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "simbench_driver: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"workload\": %s, \"seed\": %llu, \"threads\": %u, "
               "\"traced\": %s, \"compiler\": %s, \"build_type\": %s, "
               "\"peak_rss_kb\": %ld,\n\"reps\": [",
               json_str(workload).c_str(),
               static_cast<unsigned long long>(seed), threads,
               trace ? "true" : "false", json_str(SIMBENCH_COMPILER).c_str(),
               json_str(SIMBENCH_BUILD_TYPE).c_str(), peak_rss_kb());
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fputs(i ? ",\n" : "\n", out);
    write_rep(out, results[i]);
  }
  std::fputs("],\n\"spans\": ", out);
  write_spans(out, spans);
  std::fputs("}\n", out);
  const bool ok = std::fclose(out) == 0;
  return ok ? 0 : 1;
}

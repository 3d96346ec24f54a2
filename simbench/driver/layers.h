// Helpers every workload shares: the sliced timed run, exact client
// latencies tapped from the generators' reply hooks, and the per-layer
// counters read from the modules' public accessors after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "netsim/network.h"
#include "testbed/cluster.h"

namespace simbench {

using ipipe::Ns;

/// What one workload run is asked to do.
struct RunOpts {
  std::uint64_t seed = 1;
  unsigned threads = 1;
  std::string label;
  bool setup_only = false;  ///< build, time the set-up, tear down
};

/// Exact latency of every op a generator completes.  A reply that moved
/// the generator's completed() count finished one op, and replies carry
/// the op's issue time (`created_at`), which in an open loop is the time
/// the op was due: the generator is never late in virtual time.
class LatencyTap {
 public:
  LatencyTap(Ns window_begin, Ns window_end)
      : begin_(window_begin), end_(window_end) {}

  void on_reply(std::uint64_t completed_now, Ns now, Ns created_at) {
    if (completed_now == seen_) {
      ++unmatched_;
      return;
    }
    seen_ = completed_now;
    if (now >= begin_ && now <= end_) ++completed_in_window_;
    if (created_at >= begin_ && created_at < end_) {
      samples_.push_back(now - created_at);
    }
  }
  [[nodiscard]] std::uint64_t completed_in_window() const noexcept {
    return completed_in_window_;
  }
  /// Replies that completed no op: duplicates, replies to requests the
  /// client never sent or no longer waits for, and control traffic.
  [[nodiscard]] std::uint64_t unmatched() const noexcept { return unmatched_; }
  [[nodiscard]] std::vector<std::uint64_t>& samples() noexcept {
    return samples_;
  }

 private:
  Ns begin_;
  Ns end_;
  std::uint64_t seen_ = 0;
  std::uint64_t unmatched_ = 0;
  std::uint64_t completed_in_window_ = 0;
  std::vector<std::uint64_t> samples_;
};

/// Time-averages the runtime's scheduler utilisation gauges, which only
/// hold the latest management window, by reading them at slice ends.
class GaugeSampler {
 public:
  void sample(const std::vector<ipipe::testbed::ServerNode*>& servers);
  [[nodiscard]] double fcfs_util() const noexcept {
    return n_ ? fcfs_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double drr_util() const noexcept {
    return n_ ? drr_ / static_cast<double>(n_) : 0.0;
  }

 private:
  double fcfs_ = 0.0;
  double drr_ = 0.0;
  std::uint64_t n_ = 0;
};

/// Summed host-core busy time (simulated ns) over `servers`.
[[nodiscard]] double host_busy_ns(
    const std::vector<ipipe::testbed::ServerNode*>& servers);

/// Append the netsim / nic / hostsim / ipipe counters of a finished run.
void add_layer_counters(RepResult& r,
                        const std::vector<ipipe::testbed::ServerNode*>& servers,
                        ipipe::netsim::Network& net, Ns elapsed,
                        const GaugeSampler& gauges);

/// Advance the engine from `from` to `to` in fixed virtual-time slices.
/// Each slice is one span (and one Slice record) when tracing; gauges are
/// sampled at every slice end either way, so traced and untraced runs
/// execute the identical sequence of engine calls.
template <class Advance, class Events, class Completions, class Sample>
void run_slices(Spans& spans, RepResult& r, Ns from, Ns to, Ns step,
                Advance&& advance, Events&& events,
                Completions&& completions, Sample&& sample) {
  for (Ns t = from; t < to;) {
    t = t + step < to ? t + step : to;
    const std::uint64_t ev0 = events();
    const std::uint64_t done0 = completions();
    const int id = spans.begin("slice");
    const auto w0 = WallClock::now();
    advance(t);
    if (spans.on()) {
      const Slice s{seconds_since(w0), events() - ev0, completions() - done0};
      spans.end(id, {{"until_ms", ipipe::to_ms(t)},
                     {"events", static_cast<double>(s.events)},
                     {"completions", static_cast<double>(s.completions)}});
      r.slices.push_back(s);
    }
    sample();
  }
}

/// The workloads.  Each builds its inputs from `o.seed` alone.
[[nodiscard]] RepResult run_rkv_paxos(const RunOpts& o, Spans& spans);
[[nodiscard]] RepResult run_sched_bimodal(const RunOpts& o, Spans& spans);
[[nodiscard]] RepResult run_shard_chaos(const RunOpts& o, Spans& spans);
[[nodiscard]] RepResult run_shard_fixed_chaos(const RunOpts& o, Spans& spans);

}  // namespace simbench

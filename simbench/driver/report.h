// Result record, wall-clock spans and JSON output shared by the three
// benchmark workloads.  Everything here belongs to the benchmark: the
// simulator under test is only ever called, never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace simbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// FNV-1a over the deterministic results of a run (counters, latency
/// samples, chaos log): equal digests mean equal simulated behaviour.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

using Args = std::vector<std::pair<std::string, double>>;

/// Wall-clock spans kept in memory and written out when the run ends.
/// Disabled (the untraced runs), begin/end do nothing.  Spans nest: a
/// span begun while another is open becomes its child.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    Args args;
  };

  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  int begin(std::string name);
  void end(int id, Args args = {});
  [[nodiscard]] const std::vector<Span>& all() const noexcept {
    return spans_;
  }

 private:
  bool on_;
  WallClock::time_point t0_ = WallClock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Nearest-rank percentiles of a latency sample: the p-th percentile of
/// n samples is the ceil(p/100 * n)-th smallest.  `beyond_p99` counts the
/// samples above the p99 rank; a p99 resting on fewer than ten of them
/// is not resolved.  `iqm_ns` is the mean of the samples from the p25
/// rank to the p75 rank: a central value like the median that, unlike
/// it, does not stick to a point mass of identical latencies.
struct LatencySummary {
  std::uint64_t samples = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t beyond_p99 = 0;
  double iqm_ns = 0.0;
};
[[nodiscard]] std::size_t nearest_rank_index(std::size_t n, double p);
[[nodiscard]] LatencySummary summarize_latencies(
    std::vector<std::uint64_t> samples);

/// One fixed virtual-time `run_until` slice of the timed run.
struct Slice {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
};

/// Everything one repetition of a workload reports.  Simulated fields
/// are a pure function of (workload, seed); wall fields are not.
struct RepResult {
  std::string label;
  std::uint64_t seed = 0;
  unsigned threads = 1;

  // Set-up, split by phase (host seconds).
  double setup_s = 0.0;
  double testbed_s = 0.0;
  double apps_s = 0.0;
  double workloads_s = 0.0;

  // Timed run: first simulated event to end of drain (host seconds).
  double wall_s = 0.0;
  std::uint64_t events = 0;

  // Client accounting over the whole run.
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< abandoned + expired + unanswered after drain

  // Measured window [warm-up end, traffic end] in virtual time.
  double window_s = 0.0;
  std::uint64_t completed_in_window = 0;
  double host_busy_ns_in_window = 0.0;
  LatencySummary latency;  ///< ops issued inside the window that completed

  Args counters;  ///< per-layer values, read from public accessors
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<Slice> slices;
  std::string digest;
};

/// Append `r` as a JSON object to `out`.
void write_rep(std::FILE* out, const RepResult& r);
/// Append the span list as a JSON array to `out`.
void write_spans(std::FILE* out, const Spans& spans);
/// JSON string literal with the escapes the output needs.
[[nodiscard]] std::string json_str(const std::string& s);

/// Peak resident set of this process in KiB.
[[nodiscard]] long peak_rss_kb();

}  // namespace simbench

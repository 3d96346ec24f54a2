#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace simbench {

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  add(s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::size_t nearest_rank_index(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

LatencySummary summarize_latencies(std::vector<std::uint64_t> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t i50 = nearest_rank_index(samples.size(), 50.0);
  const std::size_t i99 = nearest_rank_index(samples.size(), 99.0);
  s.p50_ns = samples[i50];
  s.p99_ns = samples[i99];
  s.beyond_p99 = samples.size() - i99 - 1;
  const std::size_t lo = nearest_rank_index(samples.size(), 25.0);
  const std::size_t hi = nearest_rank_index(samples.size(), 75.0);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += static_cast<double>(samples[i]);
  s.iqm_ns = sum / static_cast<double>(hi - lo + 1);
  return s;
}

int Spans::begin(std::string name) {
  if (!on_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(t0_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::end(int id, Args args) {
  if (!on_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
  spans_[static_cast<std::size_t>(id)].args = std::move(args);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

/// Numbers keep every digit; NaN/inf (a 0/0 ratio) become null.
void put_num(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);
  }
}

void put_args(std::FILE* out, const Args& args) {
  std::fputc('{', out);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::fprintf(out, "%s%s: ", i ? ", " : "", json_str(args[i].first).c_str());
    put_num(out, args[i].second);
  }
  std::fputc('}', out);
}

void put_u64(std::FILE* out, const char* key, std::uint64_t v) {
  std::fprintf(out, "\"%s\": %llu, ", key, static_cast<unsigned long long>(v));
}

void put_f(std::FILE* out, const char* key, double v) {
  std::fprintf(out, "\"%s\": ", key);
  put_num(out, v);
  std::fputs(", ", out);
}

}  // namespace

void write_rep(std::FILE* out, const RepResult& r) {
  std::fprintf(out, "{\"label\": %s, ", json_str(r.label).c_str());
  put_u64(out, "seed", r.seed);
  put_u64(out, "threads", r.threads);
  put_f(out, "setup_s", r.setup_s);
  put_f(out, "setup.testbed_s", r.testbed_s);
  put_f(out, "setup.apps_s", r.apps_s);
  put_f(out, "setup.workloads_s", r.workloads_s);
  put_f(out, "wall_s", r.wall_s);
  put_u64(out, "events", r.events);
  put_u64(out, "sent", r.sent);
  put_u64(out, "completed", r.completed);
  put_u64(out, "failed", r.failed);
  put_f(out, "window_s", r.window_s);
  put_u64(out, "completed_in_window", r.completed_in_window);
  put_f(out, "host_busy_ns_in_window", r.host_busy_ns_in_window);
  std::fprintf(out, "\"digest\": %s, ", json_str(r.digest).c_str());
  std::fputs("\"counters\": ", out);
  put_args(out, r.counters);
  std::fputs(", \"checks\": {", out);
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::fprintf(out, "%s%s: %s", i ? ", " : "",
                 json_str(r.checks[i].first).c_str(),
                 r.checks[i].second ? "true" : "false");
  }
  std::fputs("}, \"slices\": [", out);
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    const Slice& s = r.slices[i];
    std::fprintf(out, "%s[", i ? ", " : "");
    put_num(out, s.wall_s);
    std::fprintf(out, ", %llu, %llu]",
                 static_cast<unsigned long long>(s.events),
                 static_cast<unsigned long long>(s.completions));
  }
  std::fputs("], ", out);
  put_u64(out, "latency_samples", r.latency.samples);
  put_u64(out, "p50_ns", r.latency.p50_ns);
  put_u64(out, "p99_ns", r.latency.p99_ns);
  put_f(out, "iqm_ns", r.latency.iqm_ns);
  std::fprintf(out, "\"beyond_p99\": %llu}",
               static_cast<unsigned long long>(r.latency.beyond_p99));
}

void write_spans(std::FILE* out, const Spans& spans) {
  std::fputc('[', out);
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    std::fprintf(out, "%s\n{\"id\": %zu, \"name\": %s, \"parent\": %d, ",
                 i ? "," : "", i, json_str(s.name).c_str(), s.parent);
    put_f(out, "start_s", s.start_s);
    put_f(out, "end_s", s.end_s);
    std::fputs("\"args\": ", out);
    put_args(out, s.args);
    std::fputc('}', out);
  }
  std::fputc(']', out);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace simbench

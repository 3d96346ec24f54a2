// Helpers shared by the acceptance benches (parallel_cluster,
// sharded_rkv, nic_failover, chaos_recovery): `--name=value` flag
// parsing, the FNV-1a digests their stdout ends with, and the output
// files they are asked to write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace ipipe::bench {

/// The value part of `arg` when it reads `<name>=<value>`, else null.
inline const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
inline std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Write the file named by `--<flag>=<path>`: `write(FILE*)` prints its
/// contents.  Returns false, and says why on stderr, when the file cannot
/// be opened or written; a bench asked for the file then exits 1.
template <typename Fn>
[[nodiscard]] bool write_output(const char* flag, const std::string& path,
                                Fn&& write) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s\n", flag, path.c_str());
    return false;
  }
  write(f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "%s: cannot write %s\n", flag, path.c_str());
    return false;
  }
  return true;
}

/// The `--wall-out` document: engine threads, wall seconds and events.
[[nodiscard]] inline bool write_wall_out(const std::string& path,
                                         unsigned threads, double wall_s,
                                         std::uint64_t events) {
  return write_output("wall-out", path, [&](std::FILE* f) {
    std::fprintf(f,
                 "{\"threads\": %u, \"wall_seconds\": %.6f, "
                 "\"events\": %llu}\n",
                 threads, wall_s, static_cast<unsigned long long>(events));
  });
}

}  // namespace ipipe::bench

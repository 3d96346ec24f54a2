// Helpers shared by the acceptance benches (parallel_cluster,
// sharded_rkv, nic_failover, chaos_recovery): `--name=value` flag
// parsing and the FNV-1a digests their stdout ends with.
#pragma once

#include <cstddef>
#include <cstdint>
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

}  // namespace ipipe::bench

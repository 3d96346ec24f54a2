#include "linearize_check.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

namespace simbench {
namespace {

using ipipe::Ns;
using ipipe::verify::KvHistory;
using ipipe::verify::KvOp;
using ipipe::verify::kPendingNs;
namespace rkv = ipipe::rkv;

/// Register state: a value, or the key absent (nullopt, id kAbsent).
using Value = std::optional<std::vector<std::uint8_t>>;
constexpr std::uint32_t kAbsent = 0;

struct Entry {
  bool required = false;
  bool mutation = false;
  std::uint32_t value = kAbsent;  ///< mutation: state installed; read: seen
  Ns inv = 0;
  Ns res = kPendingNs;  ///< kPendingNs for optional mutations
  std::size_t op_index = 0;
};

/// Memoised search over one key's entries.  `explored` counts the states
/// of the whole history, and `budget` bounds that count.
class KeySearch {
 public:
  KeySearch(std::vector<Entry> entries, std::uint64_t budget,
            std::uint64_t& explored)
      : entries_(std::move(entries)),
        words_((entries_.size() + 63) / 64),
        budget_(budget),
        explored_(explored) {}

  bool run() {
    std::vector<std::uint64_t> mask(words_, 0);
    return dfs(mask, kAbsent);
  }
  [[nodiscard]] bool budget_hit() const noexcept { return budget_hit_; }

 private:
  [[nodiscard]] static bool done(const std::vector<std::uint64_t>& mask,
                                 std::size_t i) {
    return (mask[i / 64] >> (i % 64)) & 1;
  }

  bool dfs(std::vector<std::uint64_t>& mask, std::uint32_t state) {
    if (budget_hit_) return false;
    if (++explored_ > budget_) {
      budget_hit_ = true;
      return false;
    }
    // No op may linearize after the earliest response still outstanding.
    Ns min_res = kPendingNs;
    bool any_required = false;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (done(mask, i) || !entries_[i].required) continue;
      any_required = true;
      min_res = std::min(min_res, entries_[i].res);
    }
    if (!any_required) return true;

    std::string memo(reinterpret_cast<const char*>(mask.data()),
                     words_ * sizeof(std::uint64_t));
    memo.append(reinterpret_cast<const char*>(&state), sizeof state);
    if (!visited_.insert(std::move(memo)).second) return false;

    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (done(mask, i) || e.inv > min_res) continue;
      if (!e.mutation && e.value != state) continue;
      mask[i / 64] |= 1ULL << (i % 64);
      if (dfs(mask, e.mutation ? e.value : state)) return true;
      mask[i / 64] &= ~(1ULL << (i % 64));
      if (budget_hit_) return false;
    }
    return false;
  }

  std::vector<Entry> entries_;
  std::size_t words_;
  std::uint64_t budget_;
  std::uint64_t& explored_;
  bool budget_hit_ = false;
  std::unordered_set<std::string> visited_;
};

/// One key's ops as search entries, values interned to ids.  Reads that
/// observed nothing and non-register ops are dropped, and so are
/// unacknowledged mutations no read could have observed: they never have
/// to be linearized, and leaving them in makes the search exponential in
/// the ops abandoned during fault windows.
std::vector<Entry> entries_of(const KvHistory& h,
                              const std::vector<std::size_t>& indices) {
  std::map<Value, std::uint32_t> ids{{Value{}, kAbsent}};
  auto intern = [&](Value v) {
    const auto next = static_cast<std::uint32_t>(ids.size());
    return ids.emplace(std::move(v), next).first->second;
  };
  std::vector<Entry> entries;
  std::set<std::uint32_t> observed;
  for (const std::size_t idx : indices) {
    const KvOp& op = h.ops[idx];
    const bool acked_ok = op.has_status && op.status == rkv::Status::kOk;
    Entry e;
    e.inv = op.invoke;
    e.op_index = idx;
    if (op.op == rkv::Op::kGet) {
      if (acked_ok) {
        e.value = intern(Value{op.result});
      } else if (!op.has_status || op.status != rkv::Status::kNotFound) {
        continue;
      }
      e.required = true;
      e.res = op.response;
      observed.insert(e.value);
    } else if (op.op == rkv::Op::kPut || op.op == rkv::Op::kDel) {
      e.mutation = true;
      if (op.op == rkv::Op::kPut) e.value = intern(Value{op.arg});
      e.required = acked_ok;
      e.res = acked_ok ? op.response : kPendingNs;
    } else {
      continue;  // not a register operation (shard configuration)
    }
    entries.push_back(e);
  }
  std::erase_if(entries, [&](const Entry& e) {
    return e.mutation && !e.required && !observed.contains(e.value);
  });
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.inv, a.res, a.op_index) <
           std::tie(b.inv, b.res, b.op_index);
  });
  return entries;
}

std::string describe(const KvOp& op) {
  const char* name = op.op == rkv::Op::kPut   ? "Put"
                     : op.op == rkv::Op::kDel ? "Del"
                                              : "Get";
  std::string out = std::string(name) + " rid=" +
                    std::to_string(op.request_id) + " [" +
                    std::to_string(op.invoke) + ",";
  out += op.response == kPendingNs ? "inf]" : std::to_string(op.response) + "]";
  out += op.has_status
             ? " status=" + std::to_string(static_cast<unsigned>(op.status))
             : " pending";
  return out;
}

}  // namespace

KvCheck check_kv_history(const KvHistory& h, std::uint64_t max_states) {
  KvCheck out;
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < h.ops.size(); ++i) {
    by_key[h.ops[i].key].push_back(i);
  }
  for (const auto& [key, indices] : by_key) {
    std::vector<Entry> entries = entries_of(h, indices);
    if (entries.empty()) continue;
    KeySearch search(std::move(entries), max_states, out.states_explored);
    const bool linearizable = search.run();
    if (search.budget_hit()) {
      out.inconclusive = true;
      out.detail += "key=" + key + ": search budget exhausted\n";
    } else if (!linearizable) {
      out.ok = false;
      out.detail += "key=" + key + ": not linearizable; first ops:\n";
      for (std::size_t i = 0; i < indices.size() && i < 24; ++i) {
        out.detail += "  " + describe(h.ops[indices[i]]) + "\n";
      }
    }
  }
  return out;
}

}  // namespace simbench

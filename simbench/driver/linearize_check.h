// Per-key linearizability of an RKV client history, checked by the
// benchmark itself.
//
// The model and the verdicts are those of verify::check_kv_linearizable
// (src/verify/linearize.h): a kOk-acknowledged Put/Del must take effect
// inside [invoke, response]; an unacknowledged one may take effect any
// time after its invoke, or never; a kOk Get must observe exactly its
// value and a kNotFound Get an absent key; other reads are dropped.  The
// search is the same memoised Wing & Gong search over (linearized set,
// register state) with the same candidate order and state budget.
//
// verify::check_kv_linearizable holds a reference into its table of
// states across an insertion that may reallocate the table (KeySearch::
// dfs), so its verdict on a long per-key history depends on the heap.
// Here every value of a key is interned before that key's search starts:
// the search compares integer state ids and never grows a table.
#pragma once

#include <cstdint>
#include <string>

#include "verify/history.h"

namespace simbench {

struct KvCheck {
  bool ok = true;             ///< no violation found
  bool inconclusive = false;  ///< a key's search exhausted the budget
  std::uint64_t states_explored = 0;
  std::string detail;  ///< the keys that failed, and why
};

[[nodiscard]] KvCheck check_kv_history(const ipipe::verify::KvHistory& h,
                                       std::uint64_t max_states = 4'000'000);

}  // namespace simbench

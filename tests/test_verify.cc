// Verification subsystem tests: the linearizability and serializability
// checkers on hand-built histories (known-good and known-bad), the
// mutation self-tests (seeded bugs must be CAUGHT), clean chaos seeds
// (no false positives), and the fault-plan shrinker (deterministic,
// small minimized plans).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "verify/fuzz.h"
#include "verify/history.h"
#include "verify/linearize.h"
#include "verify/serialize.h"

namespace ipipe {
namespace {

using verify::DtHistory;
using verify::KvHistory;
using verify::KvOp;
using verify::kPendingNs;

std::vector<std::uint8_t> val(std::uint8_t tag) { return {tag, 0x5A, tag}; }

KvOp kv_put(std::uint64_t rid, const std::string& key,
            std::vector<std::uint8_t> v, Ns inv, Ns res) {
  KvOp op;
  op.request_id = rid;
  op.op = rkv::Op::kPut;
  op.key = key;
  op.arg = std::move(v);
  op.invoke = inv;
  op.response = res;
  if (res != kPendingNs) {
    op.has_status = true;
    op.status = rkv::Status::kOk;
  }
  return op;
}

KvOp kv_get(std::uint64_t rid, const std::string& key, Ns inv, Ns res,
            rkv::Status status, std::vector<std::uint8_t> result = {}) {
  KvOp op;
  op.request_id = rid;
  op.op = rkv::Op::kGet;
  op.key = key;
  op.invoke = inv;
  op.response = res;
  op.has_status = true;
  op.status = status;
  op.result = std::move(result);
  return op;
}

// ------------------------------------------------------ linearizability --

TEST(Linearize, AcceptsSequentialHistory) {
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kOk, val(1)));
  h.ops.push_back(kv_put(3, "k", val(2), 40, 50));
  h.ops.push_back(kv_get(4, "k", 60, 70, rkv::Status::kOk, val(2)));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_FALSE(r.inconclusive);
}

TEST(Linearize, AcceptsConcurrentOverlap) {
  // Two puts overlap; a read concurrent with both may observe either.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 100));
  h.ops.push_back(kv_put(2, "k", val(2), 10, 90));
  h.ops.push_back(kv_get(3, "k", 20, 80, rkv::Status::kOk, val(1)));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
  h.ops[2] = kv_get(3, "k", 20, 80, rkv::Status::kOk, val(2));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, PendingPutMayOrMayNotTakeEffect) {
  // An unacknowledged put is concurrent with everything after its
  // invoke: a later read may see it or not.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_put(2, "k", val(2), 20, kPendingNs));
  h.ops.push_back(kv_get(3, "k", 30, 40, rkv::Status::kOk, val(2)));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
  h.ops[2] = kv_get(3, "k", 30, 40, rkv::Status::kOk, val(1));
  EXPECT_TRUE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, RejectsStaleRead) {
  // The second put was acknowledged before the read was invoked, so the
  // read observing the first value is a stale read.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_put(2, "k", val(2), 20, 30));
  h.ops.push_back(kv_get(3, "k", 40, 50, rkv::Status::kOk, val(1)));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_NE(r.detail.find("not linearizable"), std::string::npos) << r.detail;
}

TEST(Linearize, RejectsReadOfValueNeverWritten) {
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kOk, val(9)));
  EXPECT_FALSE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, RejectsLostAckedWrite) {
  // NotFound after an acknowledged put with no delete anywhere.
  KvHistory h;
  h.ops.push_back(kv_put(1, "k", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "k", 20, 30, rkv::Status::kNotFound));
  EXPECT_FALSE(verify::check_kv_linearizable(h).ok);
}

TEST(Linearize, KeysArePartitionedIndependently) {
  // A violation on one key does not hide behind traffic on another.
  KvHistory h;
  h.ops.push_back(kv_put(1, "a", val(1), 0, 10));
  h.ops.push_back(kv_get(2, "a", 20, 30, rkv::Status::kOk, val(1)));
  h.ops.push_back(kv_put(3, "b", val(2), 0, 10));
  h.ops.push_back(kv_get(4, "b", 20, 30, rkv::Status::kNotFound));
  const auto r = verify::check_kv_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("key=b"), std::string::npos) << r.detail;
  EXPECT_EQ(r.detail.find("key=a"), std::string::npos) << r.detail;
}

TEST(Linearize, ManyDistinctValuesOnOneKey) {
  // Regression: the search once held a reference into its table of
  // interned states across interning a new value, which can reallocate
  // the table.  One key with hundreds of distinct values grows it many
  // times.  Each round has two overlapping puts, a read concurrent with
  // both that still sees the previous value (so it must linearize first,
  // and is only tried after every put-first branch has failed), and a
  // later read that pins the put order.
  const auto wide = [](std::uint32_t n) {
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(n),
                                     static_cast<std::uint8_t>(n >> 8), 0x5A};
  };
  constexpr std::uint32_t kRounds = 130;  // 260 distinct acked puts
  KvHistory h;
  std::uint64_t rid = 1;
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    const Ns t = Ns{100} * r;
    h.ops.push_back(kv_put(rid++, "k", wide(2 * r), t, t + 10));
    h.ops.push_back(kv_put(rid++, "k", wide(2 * r + 1), t, t + 10));
    h.ops.push_back(
        r == 0 ? kv_get(rid++, "k", t + 1, t + 9, rkv::Status::kNotFound)
               : kv_get(rid++, "k", t + 1, t + 9, rkv::Status::kOk,
                        wide(2 * r - 1)));
    h.ops.push_back(kv_get(rid++, "k", t + 20, t + 30, rkv::Status::kOk,
                           wide(2 * r + 1)));
  }
  const auto result = verify::check_kv_linearizable(h);
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_FALSE(result.inconclusive);
}

// -------------------------------------------- serializability/atomicity --

using Outcome = dt::CoordinatorObserver::Outcome;

Outcome committed_txn(std::uint64_t txn, Ns decided_at) {
  Outcome o;
  o.txn_id = txn;
  o.status = dt::TxnStatus::kCommitted;
  o.decided_at = decided_at;
  return o;
}

DtHistory::Apply install(std::uint64_t txn, netsim::NodeId node,
                         const std::string& key, std::uint32_t version,
                         std::vector<std::uint8_t> value, Ns at) {
  return DtHistory::Apply{at, node, txn, key, version, std::move(value)};
}

/// Register a validated read both in the coordinator outcome and in the
/// participant-side read records (the checker joins the two).
void add_read(Outcome& o, DtHistory& h, netsim::NodeId node,
              const std::string& key, std::uint32_t version,
              std::vector<std::uint8_t> value, Ns at) {
  o.request.reads.push_back(dt::TxnRead{node, key});
  o.read_versions.push_back(version);
  o.read_values.push_back(value);
  h.reads.push_back(
      DtHistory::Read{at, node, o.txn_id, key, version, std::move(value),
                      /*ok=*/true});
}

TEST(Serialize, CleanHistoryPasses) {
  DtHistory h;
  auto t1 = committed_txn(1, 100);
  h.applies.push_back(install(1, 0, "x", 1, val(1), 90));
  auto t2 = committed_txn(2, 200);
  add_read(t2, h, 0, "x", 1, val(1), 180);
  h.applies.push_back(install(2, 0, "y", 1, val(2), 190));
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_history(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(r.edges, 1u);  // wr: 1 -> 2
}

TEST(Serialize, AtomicityRejectsVisibleAbortedWrite) {
  DtHistory h;
  Outcome o;
  o.txn_id = 7;
  o.status = dt::TxnStatus::kAbortedValidation;
  o.decided_at = 50;
  h.outcomes.push_back(o);
  h.applies.push_back(install(7, 1, "x", 1, val(1), 60));
  const auto r = verify::check_dt_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("atomicity:"), std::string::npos) << r.detail;
  EXPECT_NE(r.detail.find("aborted write visible"), std::string::npos);
}

TEST(Serialize, InDoubtInstallIsAllowed) {
  // An install by a transaction with no recorded outcome is in-doubt
  // (coordinator crashed before deciding), not a violation.
  DtHistory h;
  h.applies.push_back(install(42, 0, "x", 1, val(1), 10));
  const auto r = verify::check_dt_history(h);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.in_doubt, 1u);
}

TEST(Serialize, RejectsWrCycle) {
  // T1 reads T2's write and vice versa: wr edges both ways.
  DtHistory h;
  auto t1 = committed_txn(1, 300);
  auto t2 = committed_txn(2, 300);
  h.applies.push_back(install(1, 0, "a", 1, val(1), 100));
  h.applies.push_back(install(2, 0, "b", 1, val(2), 100));
  add_read(t1, h, 0, "b", 1, val(2), 200);
  add_read(t2, h, 0, "a", 1, val(1), 200);
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("serialization cycle"), std::string::npos)
      << r.detail;
}

TEST(Serialize, RejectsRwWwCycle) {
  // T1 read x@v0 then T2 installed x@1 (rw T1->T2); T2's y install
  // precedes T1's y install in the same chain (ww T2->T1).
  DtHistory h;
  auto t1 = committed_txn(1, 500);
  auto t2 = committed_txn(2, 400);
  add_read(t1, h, 0, "x", 0, {}, 100);
  h.applies.push_back(install(2, 0, "x", 1, val(2), 200));
  h.applies.push_back(install(2, 0, "y", 1, val(2), 200));
  h.applies.push_back(install(1, 0, "y", 2, val(1), 300));
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("serialization cycle"), std::string::npos)
      << r.detail;
}

TEST(Serialize, ReplayedInstallAfterWipeIsNotAViolation) {
  // T1 committed long before node 0's wipe; the coordinator's commit
  // retransmit re-installs its write afterwards.  T2 decided after the
  // wipe and wrote the same key.  Without the replay exemption this
  // reads as T2 -> T1 -> T2.
  DtHistory h;
  auto t1 = committed_txn(1, 100);
  h.applies.push_back(install(1, 0, "x", 1, val(1), 110));
  h.wipes.push_back(DtHistory::Wipe{500, 0});
  auto t2 = committed_txn(2, 600);
  h.applies.push_back(install(2, 0, "x", 1, val(2), 610));
  // Replay of T1's write lands after T2's fresh install.
  h.applies.push_back(install(1, 0, "x", 2, val(1), 700));
  add_read(t1, h, 0, "x", 0, {}, 90);
  h.outcomes.push_back(t1);
  h.outcomes.push_back(t2);
  const auto r = verify::check_dt_serializable(h);
  EXPECT_TRUE(r.ok) << r.detail;
}

// ----------------------------------------------- end-to-end fuzz runs --

TEST(VerifyFuzz, RkvStaleReadBugCaught) {
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.app = verify::FuzzApp::kRkv;
  opt.inject_stale_reads = true;
  const auto v = verify::run_verify_once(opt);
  ASSERT_FALSE(v.ok) << "seeded stale-read bug was not caught";
  EXPECT_EQ(v.checker, "linearizability");
  EXPECT_GT(v.kv_completed, 0u);
}

TEST(VerifyFuzz, DtLostAbortBugCaught) {
  verify::FuzzOptions opt;
  opt.seed = 2;
  opt.app = verify::FuzzApp::kDt;
  opt.inject_lost_abort = true;
  const auto v = verify::run_verify_once(opt);
  ASSERT_FALSE(v.ok) << "seeded lost-abort bug was not caught";
  EXPECT_EQ(v.checker, "atomicity");
  EXPECT_GT(v.txns_aborted, 0u);
}

TEST(VerifyFuzz, CleanSeedsPassUnderChaos) {
  // No false positives: ten random seeds, both applications, chaos on.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    verify::FuzzOptions opt;
    opt.seed = seed;
    opt.app = seed % 2 ? verify::FuzzApp::kRkv : verify::FuzzApp::kDt;
    const auto v = verify::run_verify_once(opt);
    EXPECT_TRUE(v.ok) << "seed " << seed << " checker=" << v.checker << "\n"
                      << v.detail;
    EXPECT_FALSE(v.inconclusive) << "seed " << seed;
    if (opt.app == verify::FuzzApp::kRkv) {
      EXPECT_GT(v.kv_completed, 100u) << "seed " << seed;
    } else {
      EXPECT_GT(v.txns_committed, 100u) << "seed " << seed;
    }
  }
}

TEST(VerifyFuzz, ShrinkIsDeterministicAndSmall) {
  verify::FuzzOptions opt;
  opt.seed = 1;
  opt.app = verify::FuzzApp::kRkv;
  opt.inject_stale_reads = true;
  const auto failing = verify::run_verify_once(opt);
  ASSERT_FALSE(failing.ok);

  const auto s1 = verify::shrink_fault_plan(opt, failing.plan);
  ASSERT_FALSE(s1.verdict.ok) << "minimized plan no longer reproduces";
  EXPECT_LE(s1.plan.size(), 3u) << s1.plan.to_text();
  EXPECT_LT(s1.plan.size(), failing.plan.size());

  // Same seed, same failing plan => byte-identical minimized plan.
  const auto s2 = verify::shrink_fault_plan(opt, failing.plan);
  EXPECT_EQ(s1.plan.to_text(), s2.plan.to_text());
  EXPECT_EQ(s1.runs, s2.runs);
}

}  // namespace
}  // namespace ipipe

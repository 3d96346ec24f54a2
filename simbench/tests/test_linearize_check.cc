// Self-tests of the benchmark's own linearizability checker
// (driver/linearize_check.h) on hand-built RKV client histories.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/linearize_check.h"

namespace simbench {
namespace {

using ipipe::Ns;
using ipipe::verify::KvHistory;
using ipipe::verify::KvOp;
using ipipe::verify::kPendingNs;
namespace rkv = ipipe::rkv;

std::vector<std::uint8_t> val(std::uint8_t v) { return {v}; }

class History {
 public:
  History& put(std::uint8_t v, Ns inv, Ns res, const std::string& key = "k") {
    KvOp op = base(rkv::Op::kPut, key, inv, res);
    op.arg = val(v);
    return add(op, rkv::Status::kOk);
  }
  /// A put the client never saw answered.
  History& lost_put(std::uint8_t v, Ns inv, const std::string& key = "k") {
    KvOp op = base(rkv::Op::kPut, key, inv, kPendingNs);
    op.arg = val(v);
    h_.ops.push_back(op);
    return *this;
  }
  History& del(Ns inv, Ns res, const std::string& key = "k") {
    return add(base(rkv::Op::kDel, key, inv, res), rkv::Status::kOk);
  }
  History& get(std::uint8_t v, Ns inv, Ns res, const std::string& key = "k") {
    KvOp op = base(rkv::Op::kGet, key, inv, res);
    op.result = val(v);
    return add(op, rkv::Status::kOk);
  }
  History& get_absent(Ns inv, Ns res, const std::string& key = "k") {
    return add(base(rkv::Op::kGet, key, inv, res), rkv::Status::kNotFound);
  }
  History& get_failed(Ns inv, Ns res, const std::string& key = "k") {
    return add(base(rkv::Op::kGet, key, inv, res), rkv::Status::kNotLeader);
  }
  [[nodiscard]] const KvHistory& kv() const { return h_; }

 private:
  KvOp base(rkv::Op kind, const std::string& key, Ns inv, Ns res) {
    KvOp op;
    op.request_id = ++next_id_;
    op.op = kind;
    op.key = key;
    op.invoke = inv;
    op.response = res;
    return op;
  }
  History& add(KvOp op, rkv::Status status) {
    op.has_status = true;
    op.status = status;
    h_.ops.push_back(op);
    return *this;
  }

  KvHistory h_;
  std::uint64_t next_id_ = 0;
};

bool linearizable(const History& h) {
  const KvCheck c = check_kv_history(h.kv());
  EXPECT_FALSE(c.inconclusive);
  return c.ok;
}

TEST(LinearizeCheck, SequentialHistory) {
  EXPECT_TRUE(linearizable(
      History().get_absent(0, 5).put(1, 10, 20).get(1, 30, 40).del(50, 60)
          .get_absent(70, 80)));
  EXPECT_TRUE(linearizable(History()));
}

TEST(LinearizeCheck, StaleReadAfterAckedOverwrite) {
  EXPECT_FALSE(linearizable(History().put(1, 0, 10).put(2, 20, 30)
                                .get(1, 40, 50)));
}

TEST(LinearizeCheck, ReadConcurrentWithOverwriteMaySeeEither) {
  EXPECT_TRUE(linearizable(History().put(1, 0, 10).put(2, 20, 30)
                               .get(1, 25, 35)));
  EXPECT_TRUE(linearizable(History().put(1, 0, 10).put(2, 20, 30)
                               .get(2, 25, 35)));
}

TEST(LinearizeCheck, ReadsMustAgreeOnOneOrder) {
  // Two reads after both puts finished cannot see different values.
  EXPECT_FALSE(linearizable(History().put(1, 0, 30).put(2, 0, 30)
                                .get(1, 40, 50).get(2, 60, 70)));
  // Concurrent with both puts they can, in one order only.
  EXPECT_TRUE(linearizable(History().put(1, 0, 100).put(2, 0, 100)
                               .get(1, 10, 20).get(2, 30, 40)));
  EXPECT_FALSE(linearizable(History().put(1, 0, 100).put(2, 0, 100)
                                .get(1, 10, 20).get(2, 30, 40)
                                .get(1, 50, 60)));
}

TEST(LinearizeCheck, ValueNeverWritten) {
  EXPECT_FALSE(linearizable(History().put(1, 0, 10).get(9, 20, 30)));
}

TEST(LinearizeCheck, AbsentAfterAckedPut) {
  EXPECT_FALSE(linearizable(History().put(1, 0, 10).get_absent(20, 30)));
}

TEST(LinearizeCheck, UnacknowledgedPutMayTakeEffectLater) {
  // The lost put may land at any time after it was sent, or never.
  EXPECT_TRUE(linearizable(History().lost_put(7, 0).get_absent(10, 20)
                               .get(7, 30, 40)));
  EXPECT_TRUE(linearizable(History().lost_put(7, 0).get_absent(10, 20)));
  // But not before it was sent.
  EXPECT_FALSE(linearizable(History().get(7, 0, 5).lost_put(7, 10)));
}

TEST(LinearizeCheck, ReadsThatObservedNothingAreIgnored) {
  EXPECT_TRUE(linearizable(History().put(1, 0, 10).get_failed(20, 30)));
}

TEST(LinearizeCheck, KeysAreCheckedIndependently) {
  const History h = History().put(1, 0, 10, "a").put(2, 0, 10, "b")
                        .get(2, 20, 30, "a").get(2, 20, 30, "b");
  const KvCheck c = check_kv_history(h.kv());
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.detail.find("key=b"), std::string::npos);
  EXPECT_NE(c.detail.find("key=a"), std::string::npos);
}

TEST(LinearizeCheck, ManyDistinctValuesOnOneKey) {
  // Overlapping puts of 250 distinct values, each read back while the
  // next is in flight: the search meets new states all the way down.
  History h;
  for (int i = 0; i < 250; ++i) {
    const Ns t = 100 * static_cast<Ns>(i);
    h.put(static_cast<std::uint8_t>(i), t, t + 150);
    h.get(static_cast<std::uint8_t>(i), t + 150, t + 160);
  }
  EXPECT_TRUE(linearizable(h));
  h.get(3, 1'000'000, 1'000'010);
  EXPECT_FALSE(linearizable(h));
}

TEST(LinearizeCheck, BudgetExhaustedIsInconclusiveNotAViolation) {
  const History h = History().put(1, 0, 100).put(2, 0, 100)
                        .get(1, 10, 20).get(2, 30, 40);
  const KvCheck c = check_kv_history(h.kv(), /*max_states=*/1);
  EXPECT_TRUE(c.ok);
  EXPECT_TRUE(c.inconclusive);
  EXPECT_GT(c.states_explored, 1u);
}

}  // namespace
}  // namespace simbench

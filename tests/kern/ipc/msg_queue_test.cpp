#include "kern/ipc/msg_queue.h"

#include <gtest/gtest.h>

namespace overhaul::kern {
namespace {

using util::Code;

class MqTest : public ::testing::Test {
 protected:
  IpcPolicy policy_{true};
  TaskStruct sender_{.pid = 1, .comm = "s"};
  TaskStruct receiver_{.pid = 2, .comm = "r"};
};

// --- POSIX mq ---------------------------------------------------------------

TEST_F(MqTest, PosixPriorityOrdering) {
  PosixMq mq(policy_, 10);
  ASSERT_TRUE(mq.send(sender_, "low", 1).is_ok());
  ASSERT_TRUE(mq.send(sender_, "high", 9).is_ok());
  ASSERT_TRUE(mq.send(sender_, "mid", 5).is_ok());
  EXPECT_EQ(mq.receive(receiver_).value(), "high");
  EXPECT_EQ(mq.receive(receiver_).value(), "mid");
  EXPECT_EQ(mq.receive(receiver_).value(), "low");
}

TEST_F(MqTest, PosixFifoWithinPriority) {
  PosixMq mq(policy_, 10);
  ASSERT_TRUE(mq.send(sender_, "first", 5).is_ok());
  ASSERT_TRUE(mq.send(sender_, "second", 5).is_ok());
  EXPECT_EQ(mq.receive(receiver_).value(), "first");
  EXPECT_EQ(mq.receive(receiver_).value(), "second");
}

TEST_F(MqTest, PosixCapacity) {
  PosixMq mq(policy_, 2);
  ASSERT_TRUE(mq.send(sender_, "a", 0).is_ok());
  ASSERT_TRUE(mq.send(sender_, "b", 0).is_ok());
  EXPECT_EQ(mq.send(sender_, "c", 0).code(), Code::kWouldBlock);
}

TEST_F(MqTest, PosixEmptyReceive) {
  PosixMq mq(policy_, 2);
  EXPECT_EQ(mq.receive(receiver_).code(), Code::kWouldBlock);
}

TEST_F(MqTest, PosixTimestampPropagation) {
  PosixMq mq(policy_, 10);
  sender_.interaction_ts = sim::Timestamp{55};
  ASSERT_TRUE(mq.send(sender_, "m", 0).is_ok());
  ASSERT_TRUE(mq.receive(receiver_).is_ok());
  EXPECT_EQ(receiver_.interaction_ts.ns, 55);
}

TEST_F(MqTest, PosixNamespaceOpenCreate) {
  PosixMqNamespace ns(policy_);
  EXPECT_EQ(ns.open("/q", false).code(), Code::kNotFound);
  EXPECT_EQ(ns.open("noslash", true).code(), Code::kInvalidArgument);
  auto q = ns.open("/q", true);
  ASSERT_TRUE(q.is_ok());
  auto same = ns.open("/q", false);
  ASSERT_TRUE(same.is_ok());
  EXPECT_EQ(q.value().get(), same.value().get());
  ASSERT_TRUE(ns.unlink("/q").is_ok());
  EXPECT_EQ(ns.unlink("/q").code(), Code::kNotFound);
}

// --- SysV mq -----------------------------------------------------------------

TEST_F(MqTest, SysvTypeZeroTakesFirst) {
  SysvMq mq(policy_, 1024);
  ASSERT_TRUE(mq.send(sender_, 3, "three").is_ok());
  ASSERT_TRUE(mq.send(sender_, 1, "one").is_ok());
  auto m = mq.receive(receiver_, 0);
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().first, 3);
  EXPECT_EQ(m.value().second, "three");
}

TEST_F(MqTest, SysvExactTypeSelector) {
  SysvMq mq(policy_, 1024);
  ASSERT_TRUE(mq.send(sender_, 3, "three").is_ok());
  ASSERT_TRUE(mq.send(sender_, 1, "one").is_ok());
  auto m = mq.receive(receiver_, 1);
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().second, "one");
  EXPECT_EQ(mq.receive(receiver_, 7).code(), Code::kWouldBlock);
}

TEST_F(MqTest, SysvNegativeSelectorTakesLowestType) {
  SysvMq mq(policy_, 1024);
  ASSERT_TRUE(mq.send(sender_, 5, "five").is_ok());
  ASSERT_TRUE(mq.send(sender_, 2, "two").is_ok());
  ASSERT_TRUE(mq.send(sender_, 8, "eight").is_ok());
  auto m = mq.receive(receiver_, -6);  // lowest type <= 6 → 2
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().first, 2);
  // 8 > 6, so with only {5,8} remaining, -6 matches 5.
  m = mq.receive(receiver_, -6);
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value().first, 5);
  EXPECT_EQ(mq.receive(receiver_, -6).code(), Code::kWouldBlock);
}

TEST_F(MqTest, SysvRejectsNonPositiveType) {
  SysvMq mq(policy_, 1024);
  EXPECT_EQ(mq.send(sender_, 0, "x").code(), Code::kInvalidArgument);
  EXPECT_EQ(mq.send(sender_, -1, "x").code(), Code::kInvalidArgument);
}

TEST_F(MqTest, SysvByteCapacity) {
  SysvMq mq(policy_, 8);
  ASSERT_TRUE(mq.send(sender_, 1, "12345").is_ok());
  EXPECT_EQ(mq.send(sender_, 1, "6789a").code(), Code::kWouldBlock);
  ASSERT_TRUE(mq.receive(receiver_, 0).is_ok());
  EXPECT_TRUE(mq.send(sender_, 1, "6789a").is_ok());
}

TEST_F(MqTest, SysvTimestampPropagation) {
  SysvMq mq(policy_, 1024);
  sender_.interaction_ts = sim::Timestamp{77};
  ASSERT_TRUE(mq.send(sender_, 1, "m").is_ok());
  ASSERT_TRUE(mq.receive(receiver_, 0).is_ok());
  EXPECT_EQ(receiver_.interaction_ts.ns, 77);
}

TEST_F(MqTest, BaselineNoPropagation) {
  IpcPolicy off{false};
  PosixMq mq(off, 10);
  sender_.interaction_ts = sim::Timestamp{55};
  ASSERT_TRUE(mq.send(sender_, "m", 0).is_ok());
  ASSERT_TRUE(mq.receive(receiver_).is_ok());
  EXPECT_TRUE(receiver_.interaction_ts.is_never());
}

}  // namespace
}  // namespace overhaul::kern

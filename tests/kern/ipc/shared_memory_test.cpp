#include "kern/ipc/shared_memory.h"

#include <gtest/gtest.h>

namespace overhaul::kern {
namespace {

using util::Code;

class ShmTest : public ::testing::Test {
 protected:
  ShmTest()
      // track_misses on so fast_accesses is counted (it is instrumentation
      // gated out of the production hot path).
      : engine_(clock_, PageFaultConfig{sim::Duration::millis(500), true,
                                        true}),
        policy_{true} {}

  std::shared_ptr<ShmSegment> make_segment(std::size_t bytes = kPageSize) {
    return std::make_shared<ShmSegment>(policy_, bytes);
  }

  sim::Clock clock_;
  PageFaultEngine engine_;
  IpcPolicy policy_;
  TaskStruct writer_{.pid = 1, .comm = "w"};
  TaskStruct reader_{.pid = 2, .comm = "r"};
};

TEST_F(ShmTest, DataRoundTrip) {
  auto seg = make_segment();
  ShmMapping wmap(seg, &engine_, writer_.pid);
  ShmMapping rmap(seg, &engine_, reader_.pid);
  const char msg[] = "shared payload";
  ASSERT_TRUE(wmap.write(writer_, 64, msg, sizeof(msg)).is_ok());
  char buf[sizeof(msg)] = {};
  ASSERT_TRUE(rmap.read(reader_, 64, buf, sizeof(buf)).is_ok());
  EXPECT_STREQ(buf, "shared payload");
}

TEST_F(ShmTest, OutOfRangeRejected) {
  auto seg = make_segment(128);
  ShmMapping map(seg, &engine_, writer_.pid);
  char b[64];
  EXPECT_EQ(map.write(writer_, 100, b, 64).code(), Code::kInvalidArgument);
  EXPECT_EQ(map.read(writer_, 128, b, 1).code(), Code::kInvalidArgument);
}

TEST_F(ShmTest, FirstAccessFaults) {
  auto seg = make_segment();
  ShmMapping map(seg, &engine_, writer_.pid);
  EXPECT_TRUE(map.armed());
  map.write_u64(writer_, 0, 1);
  EXPECT_EQ(engine_.stats().faults, 1u);
  EXPECT_FALSE(map.armed());
}

TEST_F(ShmTest, AccessesWithinWaitWindowAreFast) {
  auto seg = make_segment();
  ShmMapping map(seg, &engine_, writer_.pid);
  map.write_u64(writer_, 0, 1);  // fault
  for (int i = 0; i < 100; ++i) map.write_u64(writer_, 8, 2);
  EXPECT_EQ(engine_.stats().faults, 1u);
  EXPECT_EQ(engine_.stats().fast_accesses, 100u);
}

TEST_F(ShmTest, RearmAfterWaitExpiry) {
  auto seg = make_segment();
  ShmMapping map(seg, &engine_, writer_.pid);
  map.write_u64(writer_, 0, 1);  // fault #1
  clock_.advance(sim::Duration::millis(499));
  map.write_u64(writer_, 0, 2);  // still in window
  EXPECT_EQ(engine_.stats().faults, 1u);
  clock_.advance(sim::Duration::millis(1));
  map.write_u64(writer_, 0, 3);  // window expired → fault #2
  EXPECT_EQ(engine_.stats().faults, 2u);
}

// P2 through shared memory: write fault stamps the segment, read fault
// adopts it.
TEST_F(ShmTest, PropagationOnFaults) {
  auto seg = make_segment();
  ShmMapping wmap(seg, &engine_, writer_.pid);
  ShmMapping rmap(seg, &engine_, reader_.pid);
  writer_.interaction_ts = sim::Timestamp{123};
  wmap.write_u64(writer_, 0, 0xDEAD);
  EXPECT_EQ(seg->stamp().ns, 123);
  (void)rmap.read_u64(reader_, 0);
  EXPECT_EQ(reader_.interaction_ts.ns, 123);
}

// The paper's documented trade-off: sends inside the disarmed window are
// missed.
TEST_F(ShmTest, WindowMissesPropagation) {
  auto seg = make_segment();
  ShmMapping wmap(seg, &engine_, writer_.pid);
  wmap.write_u64(writer_, 0, 1);  // fault with never-interacted writer
  writer_.interaction_ts = sim::Timestamp{999};
  wmap.write_u64(writer_, 0, 2);  // fast path: stamp NOT updated
  EXPECT_TRUE(seg->stamp().is_never());
  clock_.advance(sim::Duration::millis(500));
  wmap.write_u64(writer_, 0, 3);  // re-armed → fault → stamp updated
  EXPECT_EQ(seg->stamp().ns, 999);
}

TEST_F(ShmTest, MissTrackingCountsOpportunities) {
  PageFaultEngine tracking(clock_, PageFaultConfig{sim::Duration::millis(500),
                                                   true, true});
  auto seg = make_segment();
  ShmMapping map(seg, &tracking, writer_.pid);
  map.write_u64(writer_, 0, 1);  // fault
  writer_.interaction_ts = sim::Timestamp{5};
  map.write_u64(writer_, 0, 2);  // missed send
  map.write_u64(writer_, 0, 3);  // missed send
  EXPECT_EQ(tracking.stats().missed_sends, 2u);
}

TEST_F(ShmTest, BaselineNeverFaults) {
  PageFaultEngine baseline(clock_, PageFaultConfig{sim::Duration::millis(500),
                                                   false, false});
  auto seg = make_segment();
  ShmMapping map(seg, &baseline, writer_.pid);
  for (int i = 0; i < 1000; ++i) map.write_u64(writer_, 0, i);
  EXPECT_EQ(baseline.stats().faults, 0u);
  EXPECT_EQ(baseline.stats().fast_accesses, 0u);
}

TEST_F(ShmTest, PerMappingArming) {
  auto seg = make_segment();
  ShmMapping a(seg, &engine_, writer_.pid);
  ShmMapping b(seg, &engine_, reader_.pid);
  a.write_u64(writer_, 0, 1);
  EXPECT_FALSE(a.armed());
  EXPECT_TRUE(b.armed());  // each vm_area has its own permission state
}

TEST_F(ShmTest, PosixNamespace) {
  PosixShmNamespace ns(policy_);
  EXPECT_EQ(ns.open("/seg", false).code(), Code::kNotFound);
  EXPECT_EQ(ns.open("bad", true, 64).code(), Code::kInvalidArgument);
  EXPECT_EQ(ns.open("/seg", true, 0).code(), Code::kInvalidArgument);
  auto seg = ns.open("/seg", true, 4096);
  ASSERT_TRUE(seg.is_ok());
  EXPECT_EQ(seg.value()->size(), 4096u);
  EXPECT_EQ(ns.open("/seg", false).value().get(), seg.value().get());
  ASSERT_TRUE(ns.unlink("/seg").is_ok());
}

}  // namespace
}  // namespace overhaul::kern

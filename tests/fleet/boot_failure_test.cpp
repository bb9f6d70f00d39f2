// Boot exception safety (DESIGN.md §14): the fleet builds booting seats on
// the parallel engine's lanes, and a build that throws there must leave the
// seat table exactly as it was — no half-built seat, and none of the seats
// the other lanes finished in the same batch. The built ones are destroyed
// with the batch (the ASan build's leak check holds that), and the fleet
// keeps booting with dense ids afterwards.
//
// Failure is injected by replacing the global allocator with a shim that,
// while armed, fails every allocation made off the arming (coordinator)
// thread: worker lanes throw std::bad_alloc on their first seat while lane
// 0 builds its seats normally. The replacement must stay in its own test
// executable so it cannot leak into any other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "fleet/harness.h"

namespace {

std::atomic<bool> g_fail_off_thread{false};
std::thread::id g_coordinator;  // published by the release store above

bool fail_here() {
  return g_fail_off_thread.load(std::memory_order_acquire) &&
         std::this_thread::get_id() != g_coordinator;
}

// While alive, allocations on every thread but the caller's fail.
struct FailOffThreadAllocations {
  FailOffThreadAllocations() {
    g_coordinator = std::this_thread::get_id();
    g_fail_off_thread.store(true, std::memory_order_release);
  }
  ~FailOffThreadAllocations() {
    g_fail_off_thread.store(false, std::memory_order_release);
  }
  FailOffThreadAllocations(const FailOffThreadAllocations&) = delete;
  FailOffThreadAllocations& operator=(const FailOffThreadAllocations&) =
      delete;
};

}  // namespace

// Every replaceable allocation form the toolchain may emit, each failing
// when armed. Deallocation is free-passthrough.
void* operator new(std::size_t size) {
  if (!fail_here())
    if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (!fail_here())
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
      return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace overhaul::fleet {
namespace {

using core::DisplayBackendKind;
using sim::Duration;

FleetConfig four_lane_fleet(int shards) {
  FleetConfig fc;
  fc.shards = shards;
  fc.mix = BackendMix::kMixed;
  fc.threads = 4;
  fc.base.trace = false;
  return fc;
}

DisplayBackendKind mixed_backend(ShardId id) {
  return id % 2 == 0 ? DisplayBackendKind::kX11 : DisplayBackendKind::kWayland;
}

TEST(FleetBootFailure, ThrowingLaneLeavesNoSeatFromBootFleet) {
  FleetHarness f(four_lane_fleet(8));
  {
    // Lane 0 builds seats 0 and 4; lanes 1-3 throw on their first seat.
    FailOffThreadAllocations fail;
    EXPECT_THROW(f.boot_fleet(), std::bad_alloc);
  }
  EXPECT_EQ(f.shard_count(), 0);
  EXPECT_EQ(f.live_count(), 0);
  EXPECT_EQ(f.shard_state(0), ShardState::kEmpty);

  // The failed batch left nothing behind: the next boot starts at id 0.
  f.advance(Duration::millis(20));
  f.boot_fleet();
  ASSERT_EQ(f.shard_count(), 8);
  for (ShardId id = 0; id < 8; ++id) {
    EXPECT_EQ(f.shard(id).id(), id);
    EXPECT_EQ(f.shard(id).epoch().ns, f.clock().now().ns);
    EXPECT_EQ(f.shard(id).backend(), mixed_backend(id));
  }
}

TEST(FleetBootFailure, ThrowingLaneDropsOnlyItsStormBatch) {
  FleetHarness f(four_lane_fleet(0));
  f.schedule_boot_storm(/*count=*/20, Duration::millis(1));
  // The first quantum fires boots at 0..10 ms and builds them.
  f.step();
  const int booted = f.shard_count();
  ASSERT_EQ(booted, 11);
  {
    // The second quantum's batch fails on the worker lanes.
    FailOffThreadAllocations fail;
    EXPECT_THROW(f.step(), std::bad_alloc);
  }
  // The seats booted before are untouched; the failed batch is gone whole.
  EXPECT_EQ(f.shard_count(), booted);
  EXPECT_EQ(f.live_count(), booted);
  for (ShardId id = 0; id < booted; ++id) {
    EXPECT_EQ(f.shard_state(id), ShardState::kRunning);
    EXPECT_EQ(f.shard(id).epoch().ns, Duration::millis(id).ns);
  }

  // The fleet keeps stepping, and the next boot takes the next dense id.
  f.advance(Duration::millis(30));
  EXPECT_EQ(f.shard_count(), booted);
  const ShardId next = f.boot_shard();
  EXPECT_EQ(next, booted);
  EXPECT_EQ(f.shard(next).backend(), mixed_backend(next));
  f.step();
  for (ShardId id = 0; id <= next; ++id)
    EXPECT_EQ(f.shard(id).system().clock().now().ns + f.shard(id).epoch().ns,
              f.clock().now().ns)
        << "shard " << id;
}

}  // namespace
}  // namespace overhaul::fleet

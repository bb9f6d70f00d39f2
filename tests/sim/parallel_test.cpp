// ParallelExecutor unit tests: partition shape, barrier correctness, pool
// lifecycle. The fleet-level determinism claim lives in
// tests/fleet/parallel_equivalence_test.cpp; this file pins the executor's
// own contract — every index exactly once, lane assignment a pure function
// of the index, reusable across quanta, inline when serial or stopped, and
// a throwing item surfaces on the caller only after the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.h"

namespace overhaul::sim {
namespace {

TEST(ParallelExecutorTest, ClampsWorkerCountToAtLeastOne) {
  ParallelExecutor zero(0);
  EXPECT_EQ(zero.workers(), 1);
  ParallelExecutor negative(-3);
  EXPECT_EQ(negative.workers(), 1);
  ParallelExecutor four(4);
  EXPECT_EQ(four.workers(), 4);
}

TEST(ParallelExecutorTest, SingleWorkerRunsInlineInAscendingOrder) {
  ParallelExecutor exec(1);
  std::vector<std::size_t> seen;
  const std::thread::id caller = std::this_thread::get_id();
  exec.run_quantum(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 16u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelExecutorTest, CoversEveryIndexExactlyOnce) {
  ParallelExecutor exec(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  exec.run_quantum(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutorTest, LaneAssignmentIsStrided) {
  ParallelExecutor exec(4);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(exec.lane_of(i), static_cast<int>(i % 4));
}

// The partition promise behind the determinism contract: item i always runs
// on lane i % W, so two items on the same lane share a thread and two items
// on different lanes never do (within one quantum).
TEST(ParallelExecutorTest, ItemsRunOnTheirAssignedLane) {
  ParallelExecutor exec(4);
  constexpr std::size_t kCount = 97;  // deliberately not a multiple of W
  std::vector<std::thread::id> ran_on(kCount);
  exec.run_quantum(kCount, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(ran_on[i], ran_on[i % 4])
        << "item " << i << " not on its lane's thread";
  }
  std::map<std::thread::id, int> lanes;
  for (std::size_t l = 0; l < 4; ++l) lanes[ran_on[l]] = 1;
  EXPECT_EQ(lanes.size(), 4u) << "four lanes should use four threads";
}

TEST(ParallelExecutorTest, ReusableAcrossManyQuanta) {
  ParallelExecutor exec(4);
  std::atomic<std::size_t> total{0};
  for (int q = 0; q < 200; ++q)
    exec.run_quantum(31, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 200u * 31u);
}

TEST(ParallelExecutorTest, ZeroCountIsANoop) {
  ParallelExecutor exec(4);
  bool called = false;
  exec.run_quantum(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelExecutorTest, MoreWorkersThanItemsStillCoversAll) {
  ParallelExecutor exec(8);
  std::vector<std::atomic<int>> hits(3);
  exec.run_quantum(3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelExecutorTest, StopIsIdempotentAndFallsBackToInline) {
  ParallelExecutor exec(4);
  exec.run_quantum(8, [](std::size_t) {});
  exec.stop();
  exec.stop();  // second join must be a no-op
  // A stopped pool still accepts quanta, inline on the caller.
  std::vector<std::size_t> seen;
  const std::thread::id caller = std::this_thread::get_id();
  exec.run_quantum(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelExecutorTest, DestructorJoinsWithoutStop) {
  // Scope exit with live workers must not hang or leak threads.
  for (int round = 0; round < 8; ++round) {
    ParallelExecutor exec(3);
    std::atomic<int> n{0};
    exec.run_quantum(10, [&](std::size_t) {
      n.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(n.load(), 10);
  }
}

// Lanes may mutate disjoint slots of one container concurrently (that is
// exactly how the fleet steps its shard table); the barrier must publish
// every lane's writes to the coordinator.
TEST(ParallelExecutorTest, BarrierPublishesLaneWritesToCoordinator) {
  ParallelExecutor exec(4);
  std::vector<std::size_t> out(256, 0);
  exec.run_quantum(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// An item that throws stops its own lane; every other lane runs to its end,
// and the caller sees the exception only once no lane is running. Item 0 is
// lane 0 (the coordinator) at every width; item 2 is a worker lane at 4
// workers. Without the barrier a worker's throw terminates the process and
// a coordinator's throw unwinds while workers still call the job.
TEST(ParallelExecutorTest, ThrowingItemSurfacesAfterEveryLaneStops) {
  constexpr std::size_t kCount = 64;
  for (const int workers : {1, 2, 4}) {
    for (const std::size_t bad : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " throwing item=" + std::to_string(bad));
      ParallelExecutor exec(workers);
      std::vector<std::atomic<int>> hits(kCount);
      std::atomic<int> running{0};
      const auto fn = [&](std::size_t i) {
        running.fetch_add(1);
        hits[i].fetch_add(1);
        // Slow items, so a caller released early would still see lanes
        // running.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        running.fetch_sub(1);
        if (i == bad) throw std::runtime_error("item " + std::to_string(i));
      };
      try {
        exec.run_quantum(kCount, fn);
        ADD_FAILURE() << "run_quantum did not rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "item " + std::to_string(bad));
        EXPECT_EQ(running.load(), 0) << "a lane was still running";
      }
      // The throwing lane stopped at the bad item; every other lane ran to
      // its end. With one worker the whole quantum is that one lane.
      const int bad_lane = exec.lane_of(bad);
      for (std::size_t i = 0; i < kCount; ++i) {
        const bool skipped = exec.lane_of(i) == bad_lane && i > bad;
        EXPECT_EQ(hits[i].load(), skipped ? 0 : 1) << "item " << i;
      }
      // The barrier is clean: the next quantum covers every index once.
      std::vector<std::atomic<int>> again(kCount);
      exec.run_quantum(kCount, [&](std::size_t i) { again[i].fetch_add(1); });
      for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(again[i].load(), 1) << "item " << i;
    }
  }
}

// When several lanes throw, the caller gets the lowest lane's exception,
// whichever lane finished first.
TEST(ParallelExecutorTest, LowestThrowingLaneWins) {
  ParallelExecutor exec(4);
  for (int round = 0; round < 20; ++round) {
    try {
      exec.run_quantum(16, [](std::size_t i) {
        // Lane 3 throws at once, lane 1 only after a delay.
        if (i == 3) throw std::runtime_error("lane 3");
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          throw std::runtime_error("lane 1");
        }
      });
      ADD_FAILURE() << "run_quantum did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "lane 1");
    }
  }
}

TEST(ParallelExecutorTest, HardwareLanesIsPositive) {
  EXPECT_GE(ParallelExecutor::hardware_lanes(), 1);
}

}  // namespace
}  // namespace overhaul::sim

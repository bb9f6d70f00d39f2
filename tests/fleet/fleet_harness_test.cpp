// FleetHarness battery: shard lifecycle (boot/drain/reap, boot storms),
// shard isolation, per-shard metric prefixes with aggregate-on-read rollups,
// the XShardStamp clock-domain translation edges, and a smoke run under the
// default coalescing knobs at 64 seats and, storm-booted on 4 lanes, at 1024.
//
// The cross-shard P2 oracle property test lives in xshard_p2_test.cpp; this
// file covers everything about the fleet *except* the stamp-equivalence
// property.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/harness.h"
#include "fleet/shard.h"
#include "fleet/xshard_link.h"
#include "kern/ipc/xshard.h"
#include "kern/task.h"
#include "util/audit_log.h"

namespace overhaul {
namespace {

using fleet::BackendMix;
using fleet::FleetConfig;
using fleet::FleetHarness;
using fleet::ShardId;
using fleet::ShardState;
using kern::IpcPolicy;
using kern::TaskStruct;
using kern::XShardSocketPair;
using kern::XShardStamp;
using sim::Duration;
using sim::Timestamp;
using util::Code;
using util::Decision;
using util::Op;

FleetConfig small_fleet(int shards, BackendMix mix = BackendMix::kMixed) {
  FleetConfig fc;
  fc.shards = shards;
  fc.mix = mix;
  return fc;
}

// Launch one session on `id` and return its pid (asserting success).
kern::Pid launch_on(FleetHarness& f, ShardId id) {
  auto h = f.shard(id).launch_session("/usr/bin/seat-app", "seat-app");
  EXPECT_TRUE(h.is_ok());
  return h.value().pid;
}

// Boot → sessions → settle: the common preamble. Returns session pids.
std::vector<kern::Pid> boot_with_sessions(FleetHarness& f) {
  f.boot_fleet();
  std::vector<kern::Pid> pids;
  for (ShardId id = 0; id < f.shard_count(); ++id)
    pids.push_back(launch_on(f, id));
  // Sessions never settle locally; fleet time passing is what makes their
  // surfaces interaction-eligible (visibility_threshold is 500 ms).
  f.advance(Duration::millis(600));
  return pids;
}

// --- XShardStamp: clock-domain translation ----------------------------------

TEST(XShardStamp, FleetLocalRoundTripIsExact) {
  const Duration epoch = Duration::millis(1250);
  const Timestamp local{7'000'000};
  const Timestamp fleet = XShardStamp::to_fleet(local, epoch);
  EXPECT_EQ(fleet.ns, local.ns + epoch.ns);
  EXPECT_EQ(XShardStamp::to_local(fleet, epoch).ns, local.ns);
}

TEST(XShardStamp, NeverIsADomainConstantNotAnInstant) {
  const Duration epoch = Duration::seconds(3);
  EXPECT_TRUE(XShardStamp::to_fleet(Timestamp::never(), epoch).is_never());
  EXPECT_TRUE(XShardStamp::to_local(Timestamp::never(), epoch).is_never());
}

TEST(XShardStamp, PreEpochStampSaturatesToNever) {
  // A fleet instant before the shard booted has no local encoding; the
  // conservative translation is "no interaction ever" (deny side).
  const Duration epoch = Duration::seconds(2);
  const Timestamp before_boot{Duration::seconds(1).ns};
  EXPECT_TRUE(XShardStamp::to_local(before_boot, epoch).is_never());
  // Exactly at the epoch is local time zero, not never.
  EXPECT_EQ(XShardStamp::to_local(Timestamp{epoch.ns}, epoch).ns, 0);
}

TEST(XShardStamp, SendTranslatesIntoFleetDomainAndRecvBack) {
  IpcPolicy policy;  // propagate on, no counters attached
  TaskStruct sender{.pid = 10};
  sender.adopt_interaction(Timestamp{Duration::millis(100).ns});
  XShardStamp stamp;
  stamp.stamp_on_send(policy, sender, /*sender_epoch=*/Duration::seconds(2));
  EXPECT_EQ(stamp.fleet_stamp().ns,
            Duration::millis(100).ns + Duration::seconds(2).ns);

  TaskStruct receiver{.pid = 20};
  stamp.propagate_on_recv(policy, receiver, /*receiver_epoch=*/
                          Duration::seconds(1));
  EXPECT_EQ(receiver.interaction_ts.ns,
            Duration::millis(1100).ns);  // 2.1 s fleet − 1 s epoch
}

TEST(XShardStamp, DisabledPolicyPropagatesNothing) {
  IpcPolicy policy;
  policy.propagate = false;  // baseline kernel
  TaskStruct sender{.pid = 10};
  sender.adopt_interaction(Timestamp{1000});
  XShardStamp stamp;
  stamp.stamp_on_send(policy, sender, Duration::millis(5));
  EXPECT_TRUE(stamp.fleet_stamp().is_never());

  TaskStruct receiver{.pid = 20};
  stamp.propagate_on_recv(policy, receiver, Duration::millis(5));
  EXPECT_TRUE(receiver.interaction_ts.is_never());
}

TEST(XShardSocketPair, DeliversAcrossDistinctEpochs) {
  IpcPolicy policy;
  const Duration epoch_a = Duration::seconds(1);
  const Duration epoch_b = Duration::seconds(4);
  XShardSocketPair pair({&policy, epoch_a}, {&policy, epoch_b});

  TaskStruct a{.pid = 1};
  TaskStruct b{.pid = 2};
  // a interacted at local 5 s == fleet 6 s == b-local 2 s.
  a.adopt_interaction(Timestamp{Duration::seconds(5).ns});
  pair.send(0, a, "hello");
  EXPECT_EQ(pair.pending(1), 1u);
  EXPECT_EQ(pair.stamp_from(0).fleet_stamp().ns, Duration::seconds(6).ns);

  auto msg = pair.receive(1, b);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg, "hello");
  EXPECT_EQ(b.interaction_ts.ns, Duration::seconds(2).ns);
  // Empty inbox: no message and, crucially, no adoption.
  TaskStruct c{.pid = 3};
  EXPECT_FALSE(pair.receive(1, c).has_value());
  EXPECT_TRUE(c.interaction_ts.is_never());
}

TEST(XShardSocketPair, PreEpochStampDeniesFreshnessToLateShard) {
  IpcPolicy policy;
  // Shard b booted at 10 s; a's interaction happened at fleet 6 s.
  XShardSocketPair pair({&policy, Duration::seconds(1)},
                        {&policy, Duration::seconds(10)});
  TaskStruct a{.pid = 1};
  TaskStruct b{.pid = 2};
  a.adopt_interaction(Timestamp{Duration::seconds(5).ns});
  pair.send(0, a, "stale");
  ASSERT_TRUE(pair.receive(1, b).has_value());
  EXPECT_TRUE(b.interaction_ts.is_never());
}

// --- FleetConfig -------------------------------------------------------------

TEST(FleetConfig, MixedAlternatesBackendsByShardId) {
  FleetHarness f(small_fleet(4, BackendMix::kMixed));
  f.boot_fleet();
  EXPECT_EQ(f.shard(0).backend(), core::DisplayBackendKind::kX11);
  EXPECT_EQ(f.shard(1).backend(), core::DisplayBackendKind::kWayland);
  EXPECT_EQ(f.shard(2).backend(), core::DisplayBackendKind::kX11);
  EXPECT_EQ(f.shard(3).backend(), core::DisplayBackendKind::kWayland);
}

// --- lifecycle ---------------------------------------------------------------

TEST(FleetLifecycle, BootDrainReap) {
  FleetHarness f(small_fleet(2));
  auto pids = boot_with_sessions(f);
  EXPECT_EQ(f.shard_count(), 2);
  EXPECT_EQ(f.live_count(), 2);
  EXPECT_EQ(f.shard_state(0), ShardState::kRunning);

  // Reap without drain is refused.
  EXPECT_EQ(f.reap_shard(0).code(), Code::kBusy);

  ASSERT_TRUE(f.drain_shard(0).is_ok());
  EXPECT_EQ(f.shard_state(0), ShardState::kDraining);
  // A draining shard accepts no new sessions...
  EXPECT_EQ(f.shard(0).launch_session("/usr/bin/x", "x").code(), Code::kBusy);
  // ...and its old sessions are gone.
  EXPECT_EQ(f.shard(0).kernel().processes().lookup_live(pids[0]), nullptr);

  ASSERT_TRUE(f.reap_shard(0).is_ok());
  EXPECT_EQ(f.shard_state(0), ShardState::kReaped);
  EXPECT_EQ(f.live_count(), 1);
  // Slots are never reused; the reaped shard is gone for good.
  EXPECT_EQ(f.drain_shard(0).code(), Code::kNotFound);
  EXPECT_EQ(f.reap_shard(0).code(), Code::kNotFound);
  // Out-of-range ids are empty slots.
  EXPECT_EQ(f.shard_state(99), ShardState::kEmpty);
  EXPECT_EQ(f.drain_shard(99).code(), Code::kNotFound);

  // The survivor still works.
  EXPECT_NE(f.shard(1).kernel().processes().lookup_live(pids[1]), nullptr);
  f.advance(Duration::millis(50));
  EXPECT_EQ(f.live_count(), 1);
}

TEST(FleetLifecycle, ReapSeversCrossShardLinks) {
  FleetHarness f(small_fleet(3));
  auto pids = boot_with_sessions(f);
  f.connect_xshard(0, pids[0], 1, pids[1]);
  f.connect_xshard(1, pids[1], 2, pids[2]);
  EXPECT_EQ(f.link_count(), 2u);

  ASSERT_TRUE(f.drain_shard(2).is_ok());
  ASSERT_TRUE(f.reap_shard(2).is_ok());
  // Only the link bound to shard 2 dies with it.
  EXPECT_EQ(f.link_count(), 1u);
}

TEST(FleetLifecycle, SendToDrainedSessionReportsDeadProcess) {
  FleetHarness f(small_fleet(2));
  auto pids = boot_with_sessions(f);
  auto& link = f.connect_xshard(0, pids[0], 1, pids[1]);
  EXPECT_TRUE(link.send(0, "alive").is_ok());
  ASSERT_TRUE(f.drain_shard(0).is_ok());
  // The bound process exited with its shard's sessions.
  EXPECT_EQ(link.send(0, "dead").code(), Code::kNotFound);
  EXPECT_EQ(link.receive(0).code(), Code::kNotFound);
}

// --- boot storms & the clock invariant ---------------------------------------

// Boots are built on the engine's lanes, so the storm must come out the
// same at one lane and at four.
TEST(FleetBootStorm, StaggeredEpochsAndClockInvariant) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetConfig fc = small_fleet(0);
    fc.threads = threads;
    FleetHarness f(fc);
    const Duration stagger = Duration::millis(5);
    f.schedule_boot_storm(/*count=*/8, stagger);
    EXPECT_EQ(f.shard_count(), 0);  // nothing boots until time passes
    f.advance(Duration::millis(100));
    ASSERT_EQ(f.shard_count(), 8);
    EXPECT_EQ(f.live_count(), 8);

    const Timestamp fleet_now = f.clock().now();
    for (ShardId id = 0; id < 8; ++id) {
      EXPECT_EQ(f.shard(id).id(), id);
      // Boot k fired at exactly k·stagger of fleet time.
      EXPECT_EQ(f.shard(id).epoch().ns, stagger.ns * id) << "shard " << id;
      // The invariant every translation relies on: local + epoch == fleet.
      EXPECT_EQ(f.shard(id).system().clock().now().ns + f.shard(id).epoch().ns,
                fleet_now.ns)
          << "shard " << id;
    }
  }
}

TEST(FleetBootStorm, BootFleetSharesOneEpoch) {
  FleetHarness f(small_fleet(4));
  f.advance(Duration::millis(30));
  f.boot_fleet();
  for (ShardId id = 0; id < 4; ++id)
    EXPECT_EQ(f.shard(id).epoch().ns, f.clock().now().ns);
}

TEST(FleetStepping, RotationIsSeedStable) {
  auto orders = [](std::uint64_t seed) {
    FleetConfig fc = small_fleet(5);
    fc.seed = seed;
    FleetHarness f(fc);
    f.boot_fleet();
    std::vector<ShardId> seen;
    for (int i = 0; i < 4; ++i) {
      f.begin_step();
      for (ShardId id : f.step_order()) {
        seen.push_back(id);
        f.step_shard(id);
      }
    }
    return seen;
  };
  EXPECT_EQ(orders(7), orders(7));        // replayable
  EXPECT_NE(orders(7), orders(8));        // and actually seed-dependent
}

// --- isolation ---------------------------------------------------------------

TEST(FleetIsolation, GrantInShardANeverAppearsInShardB) {
  FleetHarness f(small_fleet(2));  // mixed: shard0 X11, shard1 Wayland
  auto pids = boot_with_sessions(f);

  // The user clicks into shard 0's session only.
  f.shard(0).system().input().click(50, 50);
  f.advance(Duration::millis(20));

  EXPECT_EQ(f.shard(0).kernel().monitor().check_now(
                pids[0], Op::kMicrophone, "isolation-grant-A"),
            Decision::kGrant);
  EXPECT_EQ(f.shard(1).kernel().monitor().check_now(
                pids[1], Op::kMicrophone, "isolation-check-B"),
            Decision::kDeny);

  // Shard 0's audit holds exactly the grant; shard 1 saw no grant at all
  // and nothing mentioning shard 0's query.
  auto& audit_a = f.shard(0).kernel().audit();
  auto& audit_b = f.shard(1).kernel().audit();
  EXPECT_EQ(audit_a.count(Decision::kGrant), 1u);
  ASSERT_EQ(audit_b.size(), 1u);
  EXPECT_EQ(audit_b.count(Decision::kGrant), 0u);
  EXPECT_NE(audit_b.decode(0).detail, "isolation-grant-A");

  // And the rollup sees both shards' decisions.
  EXPECT_EQ(f.aggregate_counter("monitor.decisions.granted"), 1u);
  EXPECT_EQ(f.aggregate_counter("monitor.decisions.denied"), 1u);
}

// --- per-shard metric namespaces ---------------------------------------------

TEST(FleetMetrics, ShardRegistriesArePrefixedAndRollUp) {
  FleetHarness f(small_fleet(2));
  auto pids = boot_with_sessions(f);
  (void)pids;
  f.shard(0).system().input().click(50, 50);
  f.advance(Duration::millis(20));

  auto& m0 = f.shard(0).kernel().obs().metrics;
  auto& m1 = f.shard(1).kernel().obs().metrics;
  EXPECT_EQ(m0.prefix(), "fleet.shard0.");
  EXPECT_EQ(m1.prefix(), "fleet.shard1.");

  // Every instrument a shard registered lives under its namespace.
  std::size_t counters = 0;
  m0.for_each_counter([&](const std::string& name, const obs::Counter&) {
    ++counters;
    EXPECT_EQ(name.rfind("fleet.shard0.", 0), 0u) << name;
  });
  EXPECT_GT(counters, 0u);

  // Lookups qualify transparently: shard code keeps using bare names.
  EXPECT_GE(m0.counter_value("monitor.notifications"), 1u);
  EXPECT_EQ(m1.counter_value("monitor.notifications"), 0u);
  EXPECT_EQ(f.aggregate_counter("monitor.notifications"),
            m0.counter_value("monitor.notifications"));
}

TEST(FleetMetrics, SeatGaugesTrackShardResources) {
  FleetHarness f(small_fleet(1, BackendMix::kX11));
  auto pids = boot_with_sessions(f);
  (void)pids;
  f.shard(0).account();
  const auto& m = f.shard(0).kernel().obs().metrics;
  const obs::Gauge* slots = m.find_gauge("seat.task_slots");
  ASSERT_NE(slots, nullptr);
  // init + display server + udev helper + our session at minimum.
  EXPECT_GE(slots->value(), 3);
  const obs::Gauge* ring = m.find_gauge("seat.audit_ring_bytes");
  ASSERT_NE(ring, nullptr);
  EXPECT_GE(ring->value(), 0);
  ASSERT_NE(m.find_gauge("seat.netlink_pending"), nullptr);
  EXPECT_GT(f.rss_proxy_bytes(), 0u);
}

// A booted seat holds a handful of tasks, so its process table is one
// 16-slot chunk and one pid page, not a slab sized for the pid space.
TEST(FleetMetrics, BootedSeatProcessTableIsOneChunkAndOnePidPage) {
  for (const BackendMix mix : {BackendMix::kX11, BackendMix::kWayland}) {
    FleetHarness f(small_fleet(1, mix));
    f.boot_fleet();
    EXPECT_LE(f.shard(0).kernel().processes().bytes(), 16u * 1024);
  }
}

// Window pixels stay one solid colour until a client draws, so a booted seat
// holds no pixel storage; one drawn window adds exactly width × height × 4
// bytes to the seat gauge and to the RSS proxy.
TEST(FleetMetrics, SeatPixelBytesCountOnlyDrawnWindows) {
  for (const BackendMix mix : {BackendMix::kX11, BackendMix::kWayland}) {
    FleetHarness f(small_fleet(1, mix));
    f.boot_fleet();
    fleet::Shard& seat = f.shard(0);
    const auto drawn =
        seat.launch_session("/usr/bin/a", "a", {0, 0, 400, 300}).value();
    ASSERT_TRUE(
        seat.launch_session("/usr/bin/b", "b", {50, 50, 200, 100}).is_ok());
    seat.account();
    const obs::Gauge* pixels =
        seat.kernel().obs().metrics.find_gauge("seat.pixel_bytes");
    ASSERT_NE(pixels, nullptr);
    EXPECT_EQ(pixels->value(), 0);
    const std::size_t proxy = f.rss_proxy_bytes();

    core::OverhaulSystem& sys = seat.system();
    if (mix == BackendMix::kX11) {
      sys.xserver().surface(drawn.window)->pixels()[0] = 0xFFFFFFFFu;
    } else {
      sys.compositor().surface(drawn.window)->pixels()[0] = 0xFFFFFFFFu;
    }
    seat.account();
    EXPECT_EQ(pixels->value(), 400 * 300 * 4);
    EXPECT_EQ(f.rss_proxy_bytes(), proxy + 400u * 300 * 4);
  }
}

// --- fleet smoke under the default coalescing knobs --------------------------

// Boots `seats` mixed-backend seats, all at once or by a staggered storm,
// with one session each, grants every session inside δ, then drains and
// reaps eight seats and keeps stepping: every seat must come up live with
// its session, and the rollups must count each live seat exactly once.
void run_fleet_smoke(int seats, bool storm, int threads) {
  FleetConfig fc = small_fleet(seats, BackendMix::kMixed);
  ASSERT_TRUE(fc.base.netlink_coalesce);  // the knob under test stays on
  fc.base.trace = false;                  // keep the smoke run lean
  fc.threads = threads;
  FleetHarness f(fc);
  if (storm) {
    f.schedule_boot_storm(seats, fc.boot_stagger);
    while (f.shard_count() < seats) f.step();
  } else {
    f.boot_fleet();
  }
  std::vector<kern::Pid> pids;
  for (ShardId id = 0; id < f.shard_count(); ++id) {
    auto session = f.shard(id).launch_session("/usr/bin/seat-app", "seat-app");
    ASSERT_TRUE(session.is_ok())
        << "shard " << id << ": " << session.status().to_string();
    pids.push_back(session.value().pid);
  }
  // Fleet time passing makes the sessions' surfaces interaction-eligible.
  f.advance(Duration::millis(600));
  ASSERT_EQ(f.live_count(), seats);

  // One click per seat, then a decision per seat inside δ.
  for (ShardId id = 0; id < seats; ++id)
    f.shard(id).system().input().click(50, 50);
  f.advance(Duration::millis(50));
  for (ShardId id = 0; id < seats; ++id) {
    EXPECT_EQ(f.shard(id).kernel().monitor().check_now(pids[id],
                                                       Op::kMicrophone,
                                                       "smoke"),
              Decision::kGrant)
        << "shard " << id;
  }
  const auto live = static_cast<std::uint64_t>(seats);
  EXPECT_EQ(f.aggregate_counter("monitor.decisions.granted"), live);
  EXPECT_EQ(f.aggregate_counter("monitor.decisions.denied"), 0u);
  EXPECT_GT(f.rss_proxy_bytes(), 0u);
  EXPECT_GT(f.steps_taken(), 0u);

  // Drain + reap a slice of the fleet and keep stepping: no stale state.
  for (ShardId id = 0; id < 8; ++id) {
    ASSERT_TRUE(f.drain_shard(id).is_ok());
    ASSERT_TRUE(f.reap_shard(id).is_ok());
  }
  EXPECT_EQ(f.live_count(), seats - 8);
  f.advance(Duration::millis(50));
  EXPECT_EQ(f.aggregate_counter("monitor.decisions.granted"), live - 8);
}

TEST(FleetSmoke, SixtyFourShardsMixedBackendsWithCoalescing) {
  run_fleet_smoke(64, /*storm=*/false, /*threads=*/1);
}

// The fleet's scale floor: a 1024-seat boot storm, built and stepped on 4
// lanes, leaves at least 1000 concurrent sessions live — all 1024 here.
TEST(FleetSmoke, ThousandTwentyFourShardsStormBootedOnFourLanes) {
  run_fleet_smoke(1024, /*storm=*/true, /*threads=*/4);
}

}  // namespace
}  // namespace overhaul

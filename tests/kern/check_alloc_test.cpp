// Zero-allocation contract for the mediation fast path (DESIGN.md §10, §16).
//
// With tracing disabled, PermissionMonitor::check must not touch the heap:
// detail is borrowed as a string_view, ACG grants are a fixed per-Op array,
// pid→task is a slab load — and since the binary audit pipeline, logging a
// decision is two warm intern lookups plus a 64-byte ring store, so the
// contract holds with auditing *enabled* too (asserted below). On a booted
// system the alert a mic, camera or capture decision raises is written in
// place into the overlay's full ring, so that path allocates nothing
// either. This binary
// overrides the global allocator with counting shims — it must stay its own
// test executable so the override cannot leak into other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/runtime.h"
#include "audit/sink.h"
#include "core/system.h"
#include "kern/ipc/xshard.h"
#include "kern/kernel.h"
#include "kern/permission_monitor.h"
#include "kern/process_table.h"
#include "sim/clock.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

// Counting shims for every replaceable allocation form the toolchain may
// emit. Deallocation is free-passthrough; only allocation counts.
void* operator new(std::size_t size) {
  ++g_allocations;
  g_allocated_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  g_allocated_bytes += size;
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

namespace overhaul::kern {
namespace {

using util::Decision;
using util::Op;

// Allocations performed by `fn` alone.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// Bytes requested by `fn` alone.
template <typename Fn>
std::uint64_t bytes_during(Fn&& fn) {
  const std::uint64_t before = g_allocated_bytes.load();
  fn();
  return g_allocated_bytes.load() - before;
}

class CheckAllocTest : public ::testing::Test {
 protected:
  CheckAllocTest() : monitor_(processes_, clock_, audit_) {
    monitor_.set_audit_enabled(false);  // no tracer attached either
    app_ = processes_.fork(1).value();
    clock_.advance(sim::Duration::seconds(5));
  }

  sim::Clock clock_;
  ProcessTable processes_;
  audit::Sink audit_;
  PermissionMonitor monitor_;
  Pid app_ = kNoPid;
};

TEST_F(CheckAllocTest, GrantPathIsAllocationFree) {
  ASSERT_TRUE(monitor_.record_interaction(app_, clock_.now()));
  // Warm-up (first call may lazily build nothing today, but keep the
  // contract measurement honest regardless).
  (void)monitor_.check(app_, Op::kMicrophone, clock_.now(), "/dev/mic0");
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(monitor_.check(app_, Op::kMicrophone, clock_.now(),
                               "/dev/mic0"),
                Decision::kGrant);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(CheckAllocTest, DenyPathIsAllocationFree) {
  // No interaction recorded: every check denies.
  (void)monitor_.check(app_, Op::kCopy, clock_.now(), "PRIMARY");
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(monitor_.check(app_, Op::kCopy, clock_.now(), "PRIMARY"),
                Decision::kDeny);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(CheckAllocTest, AcgPolicyPathIsAllocationFree) {
  monitor_.set_grant_policy(GrantPolicy::kAcg);
  ASSERT_TRUE(monitor_.record_acg_grant(app_, Op::kCamera, clock_.now()));
  (void)monitor_.check(app_, Op::kCamera, clock_.now(), "");
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(monitor_.check(app_, Op::kCamera, clock_.now(), ""),
                Decision::kGrant);
      ASSERT_EQ(monitor_.check(app_, Op::kMicrophone, clock_.now(), ""),
                Decision::kDeny);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(CheckAllocTest, GrantAlwaysModeIsAllocationFree) {
  // The Table-I benchmark configuration: full path, forced grant.
  monitor_.set_mode(MonitorMode::kGrantAlways);
  (void)monitor_.check(app_, Op::kScreenCapture, clock_.now(), "root-window");
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(monitor_.check(app_, Op::kScreenCapture, clock_.now(),
                               "root-window"),
                Decision::kGrant);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST_F(CheckAllocTest, AuditedCheckSteadyStateIsAllocationFree) {
  // The tentpole property of the binary audit pipeline (DESIGN.md §16):
  // with auditing ON, a warm ring appends with zero heap traffic. Warm-up
  // interns the comm/detail strings and grows the ring's record storage to
  // its (small, pre-sized) capacity; the measured loop then only overwrites
  // slots.
  monitor_.set_audit_enabled(true);
  audit_.set_capacity(64);
  ASSERT_TRUE(monitor_.record_interaction(app_, clock_.now()));
  for (int i = 0; i < 128; ++i)
    (void)monitor_.check(app_, Op::kMicrophone, clock_.now(), "/dev/mic0");
  ASSERT_EQ(audit_.size(), audit_.capacity());
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(monitor_.check(app_, Op::kMicrophone, clock_.now(),
                               "/dev/mic0"),
                Decision::kGrant);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(audit_.total_appended(), 128u + 1'000u);
}

TEST_F(CheckAllocTest, SlabLookupIsAllocationFree) {
  const TaskHandle h = processes_.handle_of(app_);
  const auto n = allocations_during([&] {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_NE(processes_.lookup_live(app_), nullptr);
      ASSERT_NE(processes_.get_live(h), nullptr);
    }
  });
  EXPECT_EQ(n, 0u);
}

// The trusted-output path on a booted system, both backends: with the
// overlay's ring and the audit ring full, granted and denied mic, camera and
// screen-capture checks each raise an alert and allocate nothing.
class AlertPathAllocTest
    : public ::testing::TestWithParam<core::DisplayBackendKind> {};

TEST_P(AlertPathAllocTest, FullRingAlertsAreAllocationFree) {
  core::OverhaulConfig cfg;
  cfg.display_backend = GetParam();
  cfg.trace = false;
  core::OverhaulSystem sys(cfg);
  sys.audit().set_capacity(64);
  const Pid recorder = sys.launch_daemon("/usr/bin/rec", "rec").value();
  const Pid spy = sys.launch_daemon("/usr/bin/spy", "spy").value();
  PermissionMonitor& monitor = sys.kernel().monitor();
  ASSERT_TRUE(monitor.record_interaction(recorder, sys.clock().now()));
  const auto round = [&] {
    for (const Op op : {Op::kMicrophone, Op::kCamera, Op::kScreenCapture}) {
      ASSERT_EQ(monitor.check_now(recorder, op, "device"), Decision::kGrant);
      ASSERT_EQ(monitor.check_now(spy, op, "device"), Decision::kDeny);
    }
  };
  // Warm-up: 11 rounds raise 66 alerts, enough to fill the 64-slot ring.
  for (int i = 0; i < 11; ++i) round();
  const display::AlertOverlay& overlay = sys.display().alert_overlay();
  const std::size_t warm = overlay.shown_count();
  ASSERT_GE(warm, display::AlertOverlay::kHistoryCapacity);

  const auto n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) round();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(overlay.shown_count(), warm + 600);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AlertPathAllocTest,
    ::testing::Values(core::DisplayBackendKind::kX11,
                      core::DisplayBackendKind::kWayland),
    [](const auto& info) {
      return std::string(core::display_backend_name(info.param));
    });

// The P2 message path (DESIGN.md §10): on a warm channel, each write+read
// round trip of a 300-byte message allocates once. For a pipe or FIFO that
// is the string sys_read returns; for a socket pair or POSIX mq it is the
// payload copy the send makes, which the receive hands back.
class MessagePathAllocTest : public ::testing::Test {
 protected:
  MessagePathAllocTest() {
    a_ = k_.sys_spawn(1, "/usr/bin/a", "a").value();
    b_ = k_.sys_spawn(1, "/usr/bin/b", "b").value();
  }

  template <typename RoundTrip>
  void expect_one_allocation_each(RoundTrip&& round_trip) {
    for (int i = 0; i < 4; ++i) round_trip();  // warm the channel
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(allocations_during(round_trip), 1u) << "round trip " << i;
  }

  // sys_write on `wfd` by a_, sys_read on `rfd` by b_.
  void expect_fd_round_trips(int wfd, int rfd) {
    expect_one_allocation_each([&] {
      ASSERT_EQ(k_.sys_write(a_, wfd, payload_).value_or(0), payload_.size());
      auto got = k_.sys_read(b_, rfd, 4096);
      ASSERT_TRUE(got.is_ok());
      ASSERT_EQ(got.value(), payload_);
    });
  }

  sim::Clock clock_;
  Kernel k_{clock_};
  Pid a_ = kNoPid;
  Pid b_ = kNoPid;
  const std::string payload_ = std::string(300, 'm');
};

TEST_F(MessagePathAllocTest, Pipe) {
  const auto [rfd, wfd] = k_.sys_pipe(a_).value();
  k_.processes().lookup_live(b_)->fds.insert(
      rfd, k_.processes().lookup_live(a_)->fds.at(rfd));
  expect_fd_round_trips(wfd, rfd);
}

TEST_F(MessagePathAllocTest, Fifo) {
  ASSERT_TRUE(k_.sys_mkfifo(a_, "/tmp/fifo").is_ok());
  const int wfd = k_.sys_open(a_, "/tmp/fifo", OpenFlags::kWrite).value();
  const int rfd = k_.sys_open(b_, "/tmp/fifo", OpenFlags::kRead).value();
  expect_fd_round_trips(wfd, rfd);
}

TEST_F(MessagePathAllocTest, Socketpair) {
  const auto [wfd, rfd] = k_.sys_socketpair(a_).value();
  k_.processes().lookup_live(b_)->fds.insert(
      rfd, k_.processes().lookup_live(a_)->fds.at(rfd));
  expect_fd_round_trips(wfd, rfd);
}

TEST_F(MessagePathAllocTest, PosixMq) {
  auto mq = k_.posix_mqs().open("/alloc", true).value();
  TaskStruct& sender = *k_.processes().lookup_live(a_);
  TaskStruct& receiver = *k_.processes().lookup_live(b_);
  expect_one_allocation_each([&] {
    ASSERT_TRUE(mq->send(sender, payload_, 0).is_ok());
    auto got = mq->receive(receiver);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value(), payload_);
  });
}

// A cross-shard socket pair queues like a local one: on a warm pair a
// round trip of a short (in-place) payload allocates nothing.
TEST_F(MessagePathAllocTest, CrossShardPairShortMessageIsAllocationFree) {
  XShardSocketPair pair({&k_.ipc_policy(), sim::Duration::seconds(1)},
                        {&k_.ipc_policy(), sim::Duration::seconds(2)});
  TaskStruct& sender = *k_.processes().lookup_live(a_);
  TaskStruct& receiver = *k_.processes().lookup_live(b_);
  const auto round_trip = [&] {
    pair.send(0, sender, "beat");
    pair.send(0, sender, "beat");
    for (int i = 0; i < 2; ++i) {
      auto got = pair.receive(1, receiver);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, "beat");
    }
  };
  for (int i = 0; i < 4; ++i) round_trip();  // warm the queue
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(allocations_during(round_trip), 0u) << "round trip " << i;
}

// The process path (DESIGN.md §10): fork copies the parent's descriptor
// table as one array into the storage its recycled slot kept, exit empties
// the table and reap hands the storage back to the slot. So a warm spawn +
// exit + reap of a pipeline stage allocates nothing, however many
// descriptors the shell holds. The names fit std::string's inline buffer,
// so the image copy and exec allocate nothing either.
class SpawnPathAllocTest : public ::testing::TestWithParam<int> {};

TEST_P(SpawnPathAllocTest, WarmSpawnExitReapIsAllocationFree) {
  const int inherited = GetParam();
  sim::Clock clock;
  Kernel k(clock);
  const Pid shell = k.sys_spawn(1, "/bin/sh", "sh").value();
  for (int i = 0; i < inherited; i += 2) ASSERT_TRUE(k.sys_pipe(shell).is_ok());
  const auto round = [&] {
    const Pid stage = k.sys_spawn(shell, "/usr/bin/stage", "stage").value();
    ASSERT_EQ(k.processes().lookup_live(stage)->fds.size(),
              static_cast<std::size_t>(inherited));
    ASSERT_TRUE(k.sys_exit(stage).is_ok());
    ASSERT_TRUE(k.processes().reap(stage).is_ok());
  };
  for (int i = 0; i < 4; ++i) round();  // warm the slots
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(allocations_during(round), 0u) << "round " << i;
}

INSTANTIATE_TEST_SUITE_P(InheritedFds, SpawnPathAllocTest,
                         ::testing::Values(0, 2, 6), [](const auto& info) {
                           return "Fds" + std::to_string(info.param);
                         });

// A warm create + close + unlink of a /tmp file allocates once, for its open
// description. The descriptor slot reuses the table's storage, and the name
// reuses the entry, path buffer and inode the last unlink left behind.
TEST(FdSlotAllocTest, WarmCreateCloseAllocatesNothingForTheSlot) {
  sim::Clock clock;
  Kernel k(clock);
  const Pid stage = k.sys_spawn(1, "/usr/bin/stage", "stage").value();
  const auto create_close_unlink = [&] {
    const auto fd = k.sys_open(stage, "/tmp/out", OpenFlags::kCreate);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(k.sys_close(stage, fd.value()).is_ok());
    ASSERT_TRUE(k.sys_unlink(stage, "/tmp/out").is_ok());
  };
  for (int i = 0; i < 4; ++i) create_close_unlink();
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(allocations_during(create_close_unlink), 1u) << "round " << i;
}

// Name lookups allocate nothing (DESIGN.md §10 "Hashed dentry table"): a warm
// stat, exists or unlink of an existing path is a hash, a probe and a
// compare, and a create takes the entry an unlink freed, path buffer and
// inode included — here with a name too long for std::string's inline
// buffer.
TEST(DentryAllocTest, WarmStatExistsUnlinkAndCreateAllocateNothing) {
  sim::Clock clock;
  Kernel k(clock);
  const Pid stage = k.sys_spawn(1, "/usr/bin/stage", "stage").value();
  const TaskStruct& task = *k.processes().lookup_live(stage);
  const std::string path = "/tmp/bonnie.output.000042";
  const auto create = [&] {
    ASSERT_TRUE(k.vfs().open(task, path, OpenFlags::kCreate).is_ok());
  };
  const auto stat_exists_unlink = [&] {
    ASSERT_TRUE(k.sys_stat(path).is_ok());
    ASSERT_TRUE(k.vfs().exists(path));
    ASSERT_TRUE(k.sys_unlink(stage, path).is_ok());
  };
  for (int i = 0; i < 4; ++i) {
    create();
    stat_exists_unlink();
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(allocations_during(create), 0u) << "round " << i;
    EXPECT_EQ(allocations_during(stat_exists_unlink), 0u) << "round " << i;
  }
}

// Every fleet seat boot builds these: an X11 seat's atom registry and each
// cross-shard link's queues. Neither allocates before it is used.
TEST(SetupAllocTest, AtomRegistryAndXShardPairBuildWithoutAllocating) {
  const IpcPolicy policy;
  EXPECT_EQ(allocations_during([] {
              x11::AtomRegistry atoms;
              ASSERT_EQ(atoms.view(x11::AtomRegistry::kClipboard), "CLIPBOARD");
            }),
            0u);
  EXPECT_EQ(allocations_during([&] {
              XShardSocketPair pair({&policy, sim::Duration::seconds(1)},
                                    {&policy, sim::Duration::seconds(2)});
              ASSERT_EQ(pair.pending(0), 0u);
            }),
            0u);
}

// The X11 clipboard path, driven as a toolkit drives it: ChangeProperty
// copies the owner's payload into the requestor's property once, and
// GetProperty(delete) hands that copy over instead of copying it again. So
// a warm 4 KiB paste allocates less than two payloads' worth of bytes —
// the click that authorizes it and both toolkits' event pumps included.
TEST(PastePathAllocTest, WarmX11PasteCopiesThePayloadOnce) {
  core::OverhaulConfig cfg;
  cfg.display_backend = core::DisplayBackendKind::kX11;
  cfg.trace = false;
  core::OverhaulSystem sys(cfg);
  sys.audit().set_capacity(64);
  apps::GuiApp owner(sys,
                     sys.launch_gui_app("/usr/bin/owner", "owner",
                                        display::Rect{0, 0, 200, 200})
                         .value(),
                     "owner");
  apps::GuiApp target(sys,
                      sys.launch_gui_app("/usr/bin/target", "target",
                                         display::Rect{400, 0, 200, 200})
                          .value(),
                      "target");
  const std::string payload(4096, 'p');
  const auto [ox, oy] = owner.click_point();
  sys.input().click(ox, oy);
  ASSERT_TRUE(apps::backend_copy(sys, owner, "CLIPBOARD").is_ok());

  const auto [tx, ty] = target.click_point();
  const auto paste = [&] {
    sys.input().click(tx, ty);
    auto pasted =
        apps::backend_paste(sys, owner, target, "CLIPBOARD", payload);
    ASSERT_TRUE(pasted.is_ok()) << pasted.status().to_string();
    ASSERT_EQ(pasted.value(), payload);
  };
  for (int i = 0; i < 8; ++i) paste();  // warm queues, rings and interns
  for (int i = 0; i < 16; ++i)
    EXPECT_LT(bytes_during(paste), 2 * payload.size()) << "paste " << i;
}

// Sanity: the counter actually observes heap traffic (guards against the
// shims being optimized out or not linked).
TEST_F(CheckAllocTest, CounterSeesRealAllocations) {
  const auto n = allocations_during([&] {
    std::string s(128, 'x');  // beyond SSO
    ASSERT_EQ(s.size(), 128u);
  });
  EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace overhaul::kern

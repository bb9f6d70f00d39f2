#include "kern/signals.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::kern {
namespace {

using util::Code;

class SignalsTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  Kernel& k_ = sys_.kernel();

  Pid user_proc(const std::string& comm = "p") {
    return sys_.launch_daemon("/usr/bin/" + comm, comm).value();  // uid 1000
  }
};

TEST_F(SignalsTest, KillTerminates) {
  const Pid a = user_proc("a");
  const Pid b = user_proc("b");
  ASSERT_TRUE(k_.sys_kill(a, b, Signal::kKill).is_ok());
  EXPECT_EQ(k_.processes().lookup_live(b), nullptr);
}

TEST_F(SignalsTest, UidMismatchDenied) {
  const Pid a = user_proc("a");
  const Pid b = user_proc("b");
  k_.processes().lookup(b)->uid = 2000;
  EXPECT_EQ(k_.sys_kill(a, b, Signal::kTerm).code(), Code::kPermissionDenied);
  EXPECT_NE(k_.processes().lookup_live(b), nullptr);
}

TEST_F(SignalsTest, RootSignalsAnyone) {
  const Pid b = user_proc("b");
  ASSERT_TRUE(k_.sys_kill(1, b, Signal::kKill).is_ok());
  EXPECT_EQ(k_.processes().lookup_live(b), nullptr);
}

TEST_F(SignalsTest, InitProtectedFromUsers) {
  const Pid a = user_proc("a");
  EXPECT_EQ(k_.sys_kill(a, 1, Signal::kKill).code(), Code::kPermissionDenied);
}

TEST_F(SignalsTest, StopAndContinue) {
  const Pid a = user_proc("a");
  const Pid b = user_proc("b");
  ASSERT_TRUE(k_.sys_kill(a, b, Signal::kStop).is_ok());
  EXPECT_TRUE(k_.signals().is_stopped(b));
  ASSERT_TRUE(k_.sys_kill(a, b, Signal::kCont).is_ok());
  EXPECT_FALSE(k_.signals().is_stopped(b));
}

TEST_F(SignalsTest, Usr1Accumulates) {
  const Pid a = user_proc("a");
  const Pid b = user_proc("b");
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(k_.sys_kill(a, b, Signal::kUsr1).is_ok());
  EXPECT_EQ(k_.signals().pending_usr1(b), 3u);
  EXPECT_EQ(k_.signals().take_usr1(b), 3u);
  EXPECT_EQ(k_.signals().pending_usr1(b), 0u);
}

TEST_F(SignalsTest, SignalToDeadProcessFails) {
  const Pid a = user_proc("a");
  const Pid b = user_proc("b");
  ASSERT_TRUE(k_.sys_kill(a, b, Signal::kKill).is_ok());
  EXPECT_EQ(k_.sys_kill(a, b, Signal::kUsr1).code(), Code::kNotFound);
}

// Security: SIGSTOP cannot stretch the interaction window. The record keeps
// aging while the process is stopped.
TEST_F(SignalsTest, StopDoesNotFreezeInteractionAge) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().window(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  ASSERT_TRUE(k_.sys_kill(1, app.pid, Signal::kStop).is_ok());
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  ASSERT_TRUE(k_.sys_kill(1, app.pid, Signal::kCont).is_ok());
  auto fd = k_.sys_open(app.pid, core::OverhaulSystem::mic_path(),
                        kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

// Spyware cannot silence the display manager: the X server runs as root.
TEST_F(SignalsTest, SpywareCannotKillDisplayManager) {
  const Pid mal = user_proc("mal");
  EXPECT_EQ(k_.sys_kill(mal, sys_.xserver().pid(), Signal::kKill).code(),
            Code::kPermissionDenied);
}

TEST_F(SignalsTest, KillDropsNetlinkChannel) {
  // Root killing the X server drops its channel; alerts stop flowing but
  // nothing crashes and denials still deny.
  ASSERT_TRUE(k_.sys_kill(1, sys_.xserver().pid(), Signal::kKill).is_ok());
  const Pid mal = user_proc("mal");
  auto fd = k_.sys_open(mal, core::OverhaulSystem::mic_path(),
                        kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().alerts().shown_count(), 0u);
}

// Signal state lives in the task_struct, so it dies with the task. A task
// that leaves through exit(2) rather than a fatal signal must not hand its
// stopped flag or pending SIGUSR1s to the next task given its pid.
TEST(SignalState, DoesNotOutliveItsTaskAcrossPidReuse) {
  ProcessTable pt(/*pid_max=*/8);
  SignalManager signals(pt);
  const Pid pid = pt.fork(1).value();
  ASSERT_TRUE(signals.send(1, pid, Signal::kStop).is_ok());
  ASSERT_TRUE(signals.send(1, pid, Signal::kUsr1).is_ok());
  ASSERT_TRUE(signals.is_stopped(pid));
  ASSERT_TRUE(pt.exit(pid).is_ok());
  EXPECT_FALSE(signals.is_stopped(pid));  // only live tasks are stopped
  ASSERT_TRUE(pt.reap(pid).is_ok());
  // The first fork takes over the reaped slot, and forking on until the
  // pids wrap hands out the reaped pid: every new task starts clean.
  Pid reused = kNoPid;
  for (int i = 0; i < 8 && reused != pid; ++i) {
    const auto forked = pt.fork(1);
    ASSERT_TRUE(forked.is_ok());
    reused = forked.value();
    EXPECT_FALSE(signals.is_stopped(reused)) << reused;
    EXPECT_EQ(signals.pending_usr1(reused), 0u) << reused;
  }
  ASSERT_EQ(reused, pid);
}

TEST(SignalState, ForkDoesNotCopyIt) {
  ProcessTable pt;
  SignalManager signals(pt);
  const Pid parent = pt.fork(1).value();
  ASSERT_TRUE(signals.send(1, parent, Signal::kStop).is_ok());
  ASSERT_TRUE(signals.send(1, parent, Signal::kUsr1).is_ok());
  const Pid child = pt.fork(parent).value();
  EXPECT_FALSE(signals.is_stopped(child));
  EXPECT_EQ(signals.pending_usr1(child), 0u);
  EXPECT_TRUE(signals.is_stopped(parent));
  EXPECT_EQ(signals.take_usr1(parent), 1u);
}

}  // namespace
}  // namespace overhaul::kern

// Fault injection: trusted components dying or restarting. These pin down
// the design's failure modes — including the trusted-helper dependency the
// paper takes on for dynamic device naming (§IV-B).
#include <gtest/gtest.h>

#include "core/system.h"
#include "kern/signals.h"
#include "kern/udev.h"

namespace overhaul {
namespace {

using util::Code;

class FaultInjectionTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

TEST_F(FaultInjectionTest, HelperDeathFreezesDeviceMap) {
  // Kill the udev helper, then rename the camera node (driver re-probe).
  // The kernel map goes stale: the documented trusted-helper dependency.
  ASSERT_NE(sys_.kernel().udev_helper(), nullptr);
  // The helper runs as root; only root can kill it.
  kern::Pid helper_pid = kern::kNoPid;
  sys_.kernel().processes().for_each_live([&](kern::TaskStruct& t) {
    if (t.comm == "udev-helper") helper_pid = t.pid;
  });
  ASSERT_NE(helper_pid, kern::kNoPid);
  ASSERT_TRUE(sys_.kernel().sys_kill(1, helper_pid, kern::Signal::kKill).is_ok());

  ASSERT_TRUE(sys_.kernel().vfs().rename("/dev/video0", "/dev/video1").is_ok());
  // The dead helper's channel is gone: the stale map still lists the OLD
  // path, and the NEW path is unmediated — a window the system closes only
  // when the helper restarts. This is a deliberate characterization test.
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  auto fd = sys_.kernel().sys_open(daemon, "/dev/video1",
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok()) << "stale-map window: new path unmediated";
}

TEST_F(FaultInjectionTest, XServerDeathFailsClosed) {
  // The display manager dies: no more interaction notifications can arrive,
  // so *everything* sensitive is denied — fail closed, not open.
  ASSERT_TRUE(
      sys_.kernel().sys_kill(1, sys_.xserver().server_pid(), kern::Signal::kKill)
          .is_ok());
  auto app = sys_.launch_daemon("/usr/bin/rec", "rec").value();
  auto fd = sys_.kernel().sys_open(app, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST_F(FaultInjectionTest, NewXServerCanReconnectAfterCrash) {
  // A replacement X server (same root-owned binary) authenticates and the
  // input-driven pipeline resumes.
  ASSERT_TRUE(
      sys_.kernel().sys_kill(1, sys_.xserver().server_pid(), kern::Signal::kKill)
          .is_ok());
  x11::XServer replacement(sys_.kernel(), sys_.config().display_config());
  replacement.alert_overlay().set_shared_secret(sys_.config().shared_secret);
  core::HardwareInputDriver input(replacement);

  auto pid = sys_.kernel().sys_spawn(1, "/usr/bin/rec", "rec").value();
  auto client = replacement.attach_client(pid).value();
  auto window = replacement.open_surface(client, display::Rect{0, 0, 80, 80}).value();
  ASSERT_TRUE(replacement.show_surface(client, window).is_ok());
  sys_.advance(sys_.config().visibility_threshold + sim::Duration::millis(1));
  input.click(10, 10);
  auto fd = sys_.kernel().sys_open(pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok()) << fd.status().to_string();
}

TEST_F(FaultInjectionTest, AppCrashMidTransferCleansUp) {
  // The paste target dies while clipboard data is in flight; its windows
  // and the transfer disappear, and the next owner change works.
  auto src = sys_.launch_gui_app("/usr/bin/src", "src").value();
  auto dst = sys_.launch_gui_app("/usr/bin/dst", "dst",
                                 display::Rect{300, 0, 100, 100})
                 .value();
  auto& x = sys_.xserver();
  const auto& rs = x.surface(src.window)->rect();
  sys_.input().click(rs.x + 5, rs.y + 5);
  ASSERT_TRUE(
      x.selections()
          .set_selection_owner(src.client, x11::AtomRegistry::kClipboard,
                               src.window)
          .is_ok());
  const auto& rd = x.surface(dst.window)->rect();
  sys_.input().click(rd.x + 5, rd.y + 5);
  ASSERT_TRUE(x.selections()
                  .convert_selection(dst.client, x11::AtomRegistry::kClipboard,
                                     dst.window, x.atoms().intern("P"))
                  .is_ok());
  ASSERT_FALSE(x.selections().transfers().empty());

  // The requestor crashes.
  ASSERT_TRUE(x.disconnect_client(dst.client).is_ok());
  ASSERT_TRUE(sys_.kernel().sys_exit(dst.pid).is_ok());

  // The owner can still serve future requests; a new paste works end to end.
  auto dst2 = sys_.launch_gui_app("/usr/bin/dst2", "dst2",
                                  display::Rect{500, 0, 100, 100})
                  .value();
  const auto& r2 = x.surface(dst2.window)->rect();
  sys_.input().click(r2.x + 5, r2.y + 5);
  EXPECT_TRUE(x.selections()
                  .convert_selection(dst2.client, x11::AtomRegistry::kClipboard,
                                     dst2.window, x.atoms().intern("P"))
                  .is_ok());
}

TEST_F(FaultInjectionTest, MonitorSurvivesPidChurn) {
  // Thousands of short-lived processes must not confuse the monitor or
  // leak grants to recycled bookkeeping.
  auto& k = sys_.kernel();
  const auto live_before = k.processes().live_count();
  for (int i = 0; i < 2000; ++i) {
    auto pid = k.sys_spawn(1, "/usr/bin/burst", "burst").value();
    if (i % 3 == 0) {
      (void)k.sys_open(pid, core::OverhaulSystem::mic_path(),
                       kern::OpenFlags::kRead);
    }
    ASSERT_TRUE(k.sys_exit(pid).is_ok());
  }
  EXPECT_EQ(k.audit().count(util::Decision::kGrant), 0u);
  EXPECT_EQ(k.processes().live_count(), live_before);
}

}  // namespace
}  // namespace overhaul

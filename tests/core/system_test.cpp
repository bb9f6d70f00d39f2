// OverhaulSystem boot and configuration tests.
#include "core/system.h"

#include <gtest/gtest.h>

namespace overhaul::core {
namespace {

using util::Code;

TEST(SystemTest, BootInstallsDevicesAndMapsThem) {
  OverhaulSystem sys;
  EXPECT_NE(sys.microphone(), kern::kNoDevice);
  EXPECT_NE(sys.camera(), kern::kNoDevice);
  EXPECT_EQ(sys.kernel().devices().device_at(OverhaulSystem::mic_path()),
            sys.microphone());
  EXPECT_EQ(sys.kernel().devices().device_at(OverhaulSystem::camera_path()),
            sys.camera());
  EXPECT_NE(sys.kernel().udev_helper(), nullptr);
}

TEST(SystemTest, BaselineBootSkipsHelperAndMap) {
  OverhaulSystem sys(OverhaulConfig::baseline());
  EXPECT_EQ(sys.kernel().udev_helper(), nullptr);
  EXPECT_FALSE(sys.kernel()
                   .devices()
                   .device_at(OverhaulSystem::mic_path())
                   .has_value());
}

TEST(SystemTest, XServerAuthenticatedAtBoot) {
  OverhaulSystem sys;
  EXPECT_NE(sys.xserver().server_pid(), kern::kNoPid);
  const auto* xorg = sys.kernel().processes().lookup(sys.xserver().server_pid());
  ASSERT_NE(xorg, nullptr);
  EXPECT_EQ(xorg->exe_path, "/usr/lib/xorg/Xorg");
}

TEST(SystemTest, LaunchGuiAppWiring) {
  OverhaulSystem sys;
  auto app = sys.launch_gui_app("/usr/bin/foo", "foo", display::Rect{5, 5, 50, 40});
  ASSERT_TRUE(app.is_ok());
  EXPECT_NE(sys.kernel().processes().lookup_live(app.value().pid), nullptr);
  x11::XClient* client = sys.xserver().client(app.value().client);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->pid(), app.value().pid);
  display::Surface* win = sys.xserver().surface(app.value().window);
  ASSERT_NE(win, nullptr);
  EXPECT_TRUE(win->mapped());
}

TEST(SystemTest, SettleMakesWindowInteractionEligible) {
  OverhaulSystem sys;
  auto settled =
      sys.launch_gui_app("/usr/bin/a", "a", display::Rect{0, 0, 50, 50}, true);
  ASSERT_TRUE(settled.is_ok());
  sys.input().click(10, 10);
  EXPECT_FALSE(sys.kernel()
                   .processes()
                   .lookup(settled.value().pid)
                   ->interaction_ts.is_never());

  OverhaulSystem sys2;
  auto fresh =
      sys2.launch_gui_app("/usr/bin/a", "a", display::Rect{0, 0, 50, 50}, false);
  ASSERT_TRUE(fresh.is_ok());
  sys2.input().click(10, 10);
  EXPECT_TRUE(sys2.kernel()
                  .processes()
                  .lookup(fresh.value().pid)
                  ->interaction_ts.is_never());
}

TEST(SystemTest, AdvanceDrivesScheduler) {
  OverhaulSystem sys;
  bool fired = false;
  sys.scheduler().after(sim::Duration::seconds(5), [&] { fired = true; });
  sys.advance(sim::Duration::seconds(4));
  EXPECT_FALSE(fired);
  sys.advance(sim::Duration::seconds(2));
  EXPECT_TRUE(fired);
}

TEST(SystemTest, ConfigThreadsThroughToSubsystems) {
  OverhaulConfig cfg;
  cfg.delta = sim::Duration::millis(1234);
  cfg.shm_rearm_wait = sim::Duration::millis(77);
  cfg.visibility_threshold = sim::Duration::millis(99);
  cfg.ptrace_protect = false;
  cfg.shared_secret = "my-dog";
  OverhaulSystem sys(cfg);
  EXPECT_EQ(sys.kernel().monitor().threshold(), sim::Duration::millis(1234));
  EXPECT_EQ(sys.kernel().page_faults().config().rearm_wait,
            sim::Duration::millis(77));
  EXPECT_EQ(sys.xserver().config().visibility_threshold,
            sim::Duration::millis(99));
  EXPECT_FALSE(sys.kernel().monitor().ptrace_protect());
  EXPECT_EQ(sys.xserver().alert_overlay().shared_secret_for_verification(), "my-dog");
}

TEST(SystemTest, GrantAlwaysConfigExercisesPathWithoutDenials) {
  OverhaulSystem sys(OverhaulConfig::grant_always());
  auto daemon = sys.launch_daemon("/usr/bin/d", "d").value();
  auto fd = sys.kernel().sys_open(daemon, OverhaulSystem::mic_path(),
                                  kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());
  EXPECT_GT(sys.kernel().monitor().stats().queries, 0u);
}

TEST(SystemTest, LaunchDaemonHasNoXConnection) {
  OverhaulSystem sys;
  auto pid = sys.launch_daemon("/usr/sbin/cron", "cron").value();
  EXPECT_EQ(sys.xserver().client_of_pid(pid), nullptr);
}

}  // namespace
}  // namespace overhaul::core

// Figure 1: dynamic access control over privacy-sensitive hardware devices.
// Click → E_{A,t} authenticated → N_{A,t} recorded → open(mic) at t+n →
// granted iff n < δ, with V_{A,mic} alert on grant.
#include <gtest/gtest.h>

#include "apps/video_conf.h"
#include "core/system.h"

namespace overhaul {
namespace {

using apps::VideoConfApp;
using util::Code;

class Fig1Test : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

TEST_F(Fig1Test, ClickThenMicGranted) {
  auto skype = VideoConfApp::launch(sys_).value();
  // (1) user clicks the call button.
  auto [cx, cy] = skype->click_point();
  sys_.input().click(cx, cy);
  // (4) the app opens the devices at t+n, n small.
  sys_.advance(sim::Duration::millis(50));
  auto result = skype->start_call();
  EXPECT_TRUE(result.ok()) << result.mic.to_string() << " / "
                           << result.cam.to_string();
  // (6) V_{A,mic} and V_{A,cam} alerts were requested.
  EXPECT_EQ(sys_.xserver().alert_overlay().shown_count(), 2u);
  skype->end_call();
}

TEST_F(Fig1Test, NoClickMicDenied) {
  auto skype = VideoConfApp::launch(sys_).value();
  sys_.advance(sim::Duration::seconds(5));
  auto result = skype->start_call();
  EXPECT_EQ(result.mic.code(), Code::kOverhaulDenied);
  EXPECT_EQ(result.cam.code(), Code::kOverhaulDenied);
  // Blocked accesses alert too (this is what the user study's task 2 shows).
  EXPECT_EQ(sys_.xserver().alert_overlay().shown_count(), 2u);
}

TEST_F(Fig1Test, ClickThenWaitPastDeltaDenied) {
  auto skype = VideoConfApp::launch(sys_).value();
  auto [cx, cy] = skype->click_point();
  sys_.input().click(cx, cy);
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  auto result = skype->start_call();
  EXPECT_EQ(result.mic.code(), Code::kOverhaulDenied);
}

TEST_F(Fig1Test, SecondCallNeedsFreshClick) {
  auto skype = VideoConfApp::launch(sys_).value();
  auto [cx, cy] = skype->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(skype->start_call().ok());
  skype->end_call();
  sys_.advance(sim::Duration::seconds(30));
  EXPECT_FALSE(skype->start_call().ok());  // old grant expired
  sys_.input().click(cx, cy);
  EXPECT_TRUE(skype->start_call().ok());
}

TEST_F(Fig1Test, InteractionWithOtherAppDoesNotAuthorize) {
  // S3: permissions follow the app the user actually touched.
  auto skype = VideoConfApp::launch(sys_).value();
  auto other = sys_.launch_gui_app("/usr/bin/editor", "editor",
                                   display::Rect{800, 600, 100, 100});
  ASSERT_TRUE(other.is_ok());
  const auto& r = sys_.xserver().surface(other.value().window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);  // user clicks the *editor*
  auto result = skype->start_call();
  EXPECT_EQ(result.mic.code(), Code::kOverhaulDenied);
}

TEST_F(Fig1Test, SyntheticClickDoesNotAuthorize) {
  // S2: a malicious client fakes a click on Skype's window via XTEST.
  auto skype = VideoConfApp::launch(sys_).value();
  auto mal = sys_.launch_gui_app("/home/user/mal", "mal",
                                 display::Rect{900, 700, 50, 50});
  ASSERT_TRUE(mal.is_ok());
  auto [cx, cy] = skype->click_point();
  ASSERT_TRUE(
      sys_.xserver().xtest_fake_button(mal.value().client, cx, cy).is_ok());
  EXPECT_FALSE(skype->start_call().ok());
}

TEST_F(Fig1Test, BaselineGrantsUnconditionally) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto skype = VideoConfApp::launch(base).value();
  base.advance(sim::Duration::seconds(60));
  EXPECT_TRUE(skype->start_call().ok());
}

TEST_F(Fig1Test, HarmlessDeviceNeverMediated) {
  auto daemon = sys_.launch_daemon("/usr/bin/logger", "logger").value();
  auto fd = sys_.kernel().sys_open(daemon, "/dev/null",
                                   kern::OpenFlags::kWrite);
  EXPECT_TRUE(fd.is_ok());  // /dev/null needs no interaction
}

TEST_F(Fig1Test, DeviceRenameKeepsProtection) {
  // udev renames the camera node; the helper keeps the kernel map current,
  // so the new path is still mediated and the old path is gone.
  ASSERT_TRUE(
      sys_.kernel().vfs().rename("/dev/video0", "/dev/video1").is_ok());
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  auto fd =
      sys_.kernel().sys_open(daemon, "/dev/video1", kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

}  // namespace
}  // namespace overhaul

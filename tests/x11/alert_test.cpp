// Trusted output path tests (§IV-A "Trusted output", Fig. 5).
#include "display/alert.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using util::Decision;
using util::Op;

TEST(AlertOverlay, ShowsAndExpires) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  overlay.set_shared_secret("cat");
  overlay.set_display_duration(sim::Duration::seconds(4));
  overlay.show(42, "spyd", Op::kCamera, Decision::kDeny);
  EXPECT_EQ(overlay.active(clock.now()).size(), 1u);
  clock.advance(sim::Duration::seconds(3));
  EXPECT_EQ(overlay.active(clock.now()).size(), 1u);
  clock.advance(sim::Duration::seconds(2));
  EXPECT_TRUE(overlay.active(clock.now()).empty());
  EXPECT_EQ(overlay.shown_count(), 1u);  // history retained
}

TEST(AlertOverlay, TextNamesProcessAndResource) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  const display::Alert& denied =
      overlay.show(1, "spyd", Op::kCamera, Decision::kDeny);
  EXPECT_NE(denied.text.find("spyd"), std::string::npos);
  EXPECT_NE(denied.text.find("camera"), std::string::npos);
  EXPECT_NE(denied.text.find("Blocked"), std::string::npos);
  const display::Alert& granted =
      overlay.show(2, "skype", Op::kMicrophone, Decision::kGrant);
  EXPECT_EQ(granted.text.find("Blocked"), std::string::npos);
  EXPECT_NE(granted.text.find("microphone"), std::string::npos);
}

TEST(AlertOverlay, AuthenticityRequiresSecret) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  overlay.set_shared_secret("visual-secret:tabby-cat");
  const display::Alert& real =
      overlay.show(1, "app", Op::kMicrophone, Decision::kGrant);
  EXPECT_TRUE(overlay.is_authentic(real));

  // A forged alert (painted by a client window) has no secret.
  display::Alert forged;
  forged.text = "app is recording from the microphone";
  forged.secret = "";  // attacker cannot know the secret
  EXPECT_FALSE(overlay.is_authentic(forged));
  forged.secret = "guess";
  EXPECT_FALSE(overlay.is_authentic(forged));
}

TEST(AlertOverlay, BannerRendersSecretAndMessage) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  overlay.set_shared_secret("visual-secret:tabby-cat");
  const display::Alert& alert =
      overlay.show(7, "skype", Op::kMicrophone, Decision::kGrant);
  const std::string banner = display::AlertOverlay::render_banner(alert);
  EXPECT_NE(banner.find("visual-secret:tabby-cat"), std::string::npos);
  EXPECT_NE(banner.find("skype is recording"), std::string::npos);
  // Three lines: top border, body, bottom border.
  EXPECT_EQ(std::count(banner.begin(), banner.end(), '\n'), 3);
}

TEST(AlertOverlay, BannerFlagsMissingSecret) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  const display::Alert& alert =
      overlay.show(7, "x", Op::kCamera, Decision::kDeny);
  EXPECT_NE(display::AlertOverlay::render_banner(alert).find("(no secret!)"),
            std::string::npos);
}

TEST(AlertOverlay, NoSecretConfiguredMeansNothingAuthentic) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  const display::Alert& a =
      overlay.show(1, "app", Op::kCamera, Decision::kGrant);
  EXPECT_FALSE(overlay.is_authentic(a));
}

// Past kHistoryCapacity alerts the oldest are overwritten in place: history()
// stays oldest-first and bounded while shown_count() keeps counting until
// clear_history().
TEST(AlertOverlay, HistoryIsABoundedRing) {
  sim::Clock clock;
  display::AlertOverlay overlay(clock);
  const std::size_t cap = display::AlertOverlay::kHistoryCapacity;
  for (std::size_t i = 0; i < cap + 5; ++i)
    overlay.show(static_cast<int>(i), "app", Op::kCamera, Decision::kGrant);
  EXPECT_EQ(overlay.shown_count(), cap + 5);
  const auto held = overlay.history();
  ASSERT_EQ(held.size(), cap);
  for (std::size_t i = 0; i < cap; ++i)
    EXPECT_EQ(held[i].pid, static_cast<int>(i + 5));
  EXPECT_EQ(held.back().pid, static_cast<int>(cap + 4));
  EXPECT_EQ(overlay.active(clock.now()).size(), cap);

  overlay.clear_history();
  EXPECT_EQ(overlay.shown_count(), 0u);
  EXPECT_TRUE(overlay.history().empty());
  overlay.show(99, "app", Op::kCamera, Decision::kDeny);
  ASSERT_EQ(overlay.history().size(), 1u);
  EXPECT_EQ(overlay.history()[0].pid, 99);
}

class AlertSystemTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

// End-to-end: a blocked device access raises an overlay alert via the
// kernel → netlink → display manager path (V_{A,op}).
TEST_F(AlertSystemTest, BlockedDeviceAccessRaisesAlert) {
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), util::Code::kOverhaulDenied);
  auto& alerts = sys_.xserver().alert_overlay();
  ASSERT_EQ(alerts.shown_count(), 1u);
  EXPECT_EQ(alerts.history()[0].comm, "spy");
  EXPECT_EQ(alerts.history()[0].op, Op::kMicrophone);
  EXPECT_EQ(alerts.history()[0].decision, Decision::kDeny);
  EXPECT_TRUE(alerts.is_authentic(alerts.history()[0]));
}

TEST_F(AlertSystemTest, GrantedDeviceAccessRaisesAlertToo) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());
  auto& alerts = sys_.xserver().alert_overlay();
  ASSERT_EQ(alerts.shown_count(), 1u);
  EXPECT_EQ(alerts.history()[0].decision, Decision::kGrant);
}

// The stacking guarantee: the overlay is not a window, so no client window
// can ever sit above it.
TEST_F(AlertSystemTest, OverlayAboveAllClientWindows) {
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  (void)sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                               kern::OpenFlags::kRead);
  ASSERT_EQ(sys_.xserver().alert_overlay().active(sys_.clock().now()).size(), 1u);

  // A client maps + raises a full-screen window while the alert shows.
  auto attacker = sys_.launch_gui_app("/home/user/mal", "mal",
                                      Rect{0, 0, 1024, 768}, false);
  ASSERT_TRUE(attacker.is_ok());
  // The alert remains active and is not part of the window stacking.
  EXPECT_EQ(sys_.xserver().alert_overlay().active(sys_.clock().now()).size(), 1u);
  for (WindowId wid : sys_.xserver().stacking_order()) {
    EXPECT_NE(wid, kNoWindow);  // overlay has no window id in the stack
  }
}

TEST_F(AlertSystemTest, BaselineShowsNoAlerts) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto daemon = base.launch_daemon("/home/user/.spy", "spy").value();
  auto fd = base.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());  // unmodified system grants
  EXPECT_EQ(base.xserver().alert_overlay().shown_count(), 0u);
}

}  // namespace
}  // namespace overhaul::x11

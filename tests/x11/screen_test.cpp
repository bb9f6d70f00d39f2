// Display-content mediation tests (§IV-A "Display contents").
#include "x11/screen.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
class ScreenTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      Rect r = {0, 0, 200, 200}) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r).value();
  }

  void user_clicks(const core::OverhaulSystem::AppHandle& a) {
    (void)x_.raise_surface(a.client, a.window);
    const auto& r = x_.surface(a.window)->rect();
    sys_.input().click(r.x + r.width / 2, r.y + r.height / 2);
  }
};

TEST_F(ScreenTest, RootCaptureWithoutInteractionDenied) {
  auto shot = app("shot");
  sys_.advance(sim::Duration::seconds(10));  // far from the launch click
  auto img = x_.screen().get_image(shot.client, kRootWindow);
  EXPECT_EQ(img.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.screen().stats().captures_denied, 1u);
}

TEST_F(ScreenTest, RootCaptureAfterClickGranted) {
  auto shot = app("shot");
  user_clicks(shot);
  auto img = x_.screen().get_image(shot.client, kRootWindow);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().width, sys_.config().screen_width);
  EXPECT_EQ(img.value().pixels.size(),
            static_cast<std::size_t>(sys_.config().screen_width) *
                sys_.config().screen_height);
}

TEST_F(ScreenTest, OwnWindowCaptureAlwaysAllowed) {
  auto a = app("selfie");
  sys_.advance(sim::Duration::seconds(10));
  auto img = x_.screen().get_image(a.client, a.window);
  EXPECT_TRUE(img.is_ok());
  EXPECT_EQ(x_.screen().stats().captures_granted, 0u);  // no query needed
}

TEST_F(ScreenTest, ForeignWindowCaptureMediated) {
  auto victim = app("victim", Rect{0, 0, 100, 100});
  auto spy = app("spy", Rect{300, 300, 100, 100});
  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(x_.screen().get_image(spy.client, victim.window).code(),
            util::Code::kBadAccess);
  user_clicks(spy);
  EXPECT_TRUE(x_.screen().get_image(spy.client, victim.window).is_ok());
}

TEST_F(ScreenTest, XShmGetImageMediatedAndWritesSegment) {
  auto shot = app("shot");
  auto& k = sys_.kernel();
  const std::size_t bytes = static_cast<std::size_t>(sys_.config().screen_width) *
                            sys_.config().screen_height * 4;
  auto seg = k.posix_shms().open("/shot-shm", true, bytes).value();
  auto map = k.sys_mmap_shared(shot.pid, seg).value();

  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(x_.screen().xshm_get_image(shot.client, kRootWindow, *map).code(),
            util::Code::kBadAccess);

  user_clicks(shot);
  auto written = x_.screen().xshm_get_image(shot.client, kRootWindow, *map);
  ASSERT_TRUE(written.is_ok());
  EXPECT_EQ(written.value(), bytes);
}

TEST_F(ScreenTest, XShmSegmentTooSmall) {
  auto shot = app("shot");
  auto& k = sys_.kernel();
  auto seg = k.posix_shms().open("/tiny", true, 64).value();
  auto map = k.sys_mmap_shared(shot.pid, seg).value();
  user_clicks(shot);
  EXPECT_EQ(x_.screen().xshm_get_image(shot.client, kRootWindow, *map).code(),
            util::Code::kInvalidArgument);
}

TEST_F(ScreenTest, SameOwnerCopyAreaNeedsNoQuery) {
  auto a = app("painter");
  auto w2 = x_.open_surface(a.client, Rect{500, 0, 200, 200}).value();
  sys_.advance(sim::Duration::seconds(10));
  ASSERT_TRUE(x_.screen().copy_area(a.client, a.window, w2).is_ok());
  EXPECT_EQ(x_.screen().stats().same_owner_copies, 1u);
  EXPECT_EQ(x_.screen().stats().captures_granted, 0u);
}

TEST_F(ScreenTest, CrossClientCopyAreaMediated) {
  auto victim = app("victim", Rect{0, 0, 100, 100});
  auto spy = app("spy", Rect{300, 300, 100, 100});
  x_.surface(victim.window)->fill(0xFFCC0011u);
  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(
      x_.screen().copy_area(spy.client, victim.window, spy.window).code(),
      util::Code::kBadAccess);
  user_clicks(spy);
  ASSERT_TRUE(
      x_.screen().copy_area(spy.client, victim.window, spy.window).is_ok());
  EXPECT_EQ(x_.surface(spy.window)->pixels()[0], 0xFFCC0011u);
}

TEST_F(ScreenTest, RootSourcedCopyAreaMediated) {
  auto a = app("grabber");
  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(x_.screen().copy_area(a.client, kRootWindow, a.window).code(),
            util::Code::kBadAccess);
}

TEST_F(ScreenTest, CopyAreaIntoForeignDestinationRejected) {
  auto a = app("a");
  auto b = app("b", Rect{300, 300, 100, 100});
  EXPECT_EQ(x_.screen().copy_area(a.client, a.window, b.window).code(),
            util::Code::kBadAccess);
}

TEST_F(ScreenTest, CopyPlaneSameRules) {
  auto victim = app("victim", Rect{0, 0, 64, 64});
  auto spy = app("spy", Rect{300, 300, 64, 64});
  x_.surface(victim.window)->fill(0xFFFFFFFFu);
  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(
      x_.screen().copy_plane(spy.client, victim.window, spy.window, 0).code(),
      util::Code::kBadAccess);
  user_clicks(spy);
  ASSERT_TRUE(
      x_.screen().copy_plane(spy.client, victim.window, spy.window, 0).is_ok());
  EXPECT_EQ(x_.surface(spy.window)->pixels()[0] & 1u, 1u);
  EXPECT_EQ(
      x_.screen().copy_plane(spy.client, victim.window, spy.window, 99).code(),
      util::Code::kInvalidArgument);
}

TEST_F(ScreenTest, RootCaptureCompositesWindows) {
  auto victim = app("banking", Rect{100, 100, 50, 50});
  x_.surface(victim.window)->fill(0xFF112233u);
  x_.surface(kRootWindow)->fill(0xFF000000u);
  auto shot = app("shot", Rect{600, 600, 50, 50});
  x_.surface(shot.window)->fill(0xFF445566u);
  user_clicks(shot);

  auto img = x_.screen().get_image(shot.client, kRootWindow);
  ASSERT_TRUE(img.is_ok());
  const auto at = [&](int px, int py) {
    return img.value().pixels[static_cast<std::size_t>(py) * 1024 + px];
  };
  EXPECT_EQ(at(120, 120), 0xFF112233u);  // the victim window's contents
  EXPECT_EQ(at(620, 620), 0xFF445566u);  // the capturer's own window
  EXPECT_EQ(at(10, 10), 0xFF000000u);    // root background elsewhere
}

TEST_F(ScreenTest, CompositeHonorsStackingOrder) {
  auto below = app("below", Rect{0, 0, 100, 100});
  auto above = app("above", Rect{0, 0, 100, 100});
  x_.surface(below.window)->fill(0xFF0000FFu);
  x_.surface(above.window)->fill(0xFF00FF00u);
  user_clicks(above);
  auto img = x_.screen().get_image(above.client, kRootWindow);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().pixels[50 * 1024 + 50], 0xFF00FF00u);
  // Raise the lower window: it now wins the overlap. The user clicks the
  // (now topmost) window, which authorizes its capture.
  ASSERT_TRUE(x_.raise_surface(below.client, below.window).is_ok());
  sys_.input().click(50, 50);
  img = x_.screen().get_image(below.client, kRootWindow);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().pixels[50 * 1024 + 50], 0xFF0000FFu);
}

TEST_F(ScreenTest, UnmappedAndTransparentWindowsNotComposited) {
  auto hidden = app("hidden", Rect{200, 200, 40, 40});
  x_.surface(hidden.window)->fill(0xFFABCDEFu);
  ASSERT_TRUE(x_.hide_surface(hidden.client, hidden.window).is_ok());
  auto ghost = app("ghost", Rect{300, 300, 40, 40});
  x_.surface(ghost.window)->fill(0xFF123456u);
  ASSERT_TRUE(x_.set_input_only(ghost.client, ghost.window, true).is_ok());
  x_.surface(kRootWindow)->fill(0xFF000000u);

  auto shot = app("shot", Rect{600, 600, 50, 50});
  user_clicks(shot);
  auto img = x_.screen().get_image(shot.client, kRootWindow);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().pixels[210 * 1024 + 210], 0xFF000000u);
  EXPECT_EQ(img.value().pixels[310 * 1024 + 310], 0xFF000000u);
}

TEST_F(ScreenTest, BaselineCapturesFreely) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto shot = base.launch_gui_app("/usr/bin/shot", "shot").value();
  base.advance(sim::Duration::seconds(60));
  EXPECT_TRUE(
      base.xserver().screen().get_image(shot.client, kRootWindow).is_ok());
}

}  // namespace
}  // namespace overhaul::x11

// Screencopy capture mediation (§IV-A "Display contents" translated):
// output and foreign-surface captures are input-correlated; own-surface
// captures ride the same-owner fast path.
#include "wl/screencopy.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "wl/compositor.h"

namespace overhaul::wl {
namespace {

using util::Code;

core::OverhaulConfig wayland_config() {
  core::OverhaulConfig cfg;
  cfg.display_backend = core::DisplayBackendKind::kWayland;
  return cfg;
}

class WlScreencopyTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_{wayland_config()};
  WlCompositor& comp_ = sys_.compositor();
  WlScreencopyManager& shot_ = comp_.screencopy();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      display::Rect r = {0, 0, 200, 200}) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r).value();
  }

  void click_into(const core::OverhaulSystem::AppHandle& a) {
    const display::Rect r = sys_.display().surface_rect(a.window).value();
    sys_.input().click(r.x + r.width / 2, r.y + r.height / 2);
  }
};

TEST_F(WlScreencopyTest, OutputCaptureAfterClickIsGranted) {
  auto a = app("screenshot");
  click_into(a);
  auto img = shot_.capture_output(a.client);
  ASSERT_TRUE(img.is_ok()) << img.status().message();
  EXPECT_EQ(img.value().width, comp_.config().screen_width);
  EXPECT_EQ(img.value().height, comp_.config().screen_height);
  EXPECT_EQ(shot_.stats().captures_granted, 1u);
}

TEST_F(WlScreencopyTest, OutputCaptureWithoutInputIsDenied) {
  auto a = app("screenshot");
  const auto img = shot_.capture_output(a.client);
  EXPECT_EQ(img.status().code(), Code::kBadAccess);
  EXPECT_EQ(shot_.stats().captures_denied, 1u);
}

TEST_F(WlScreencopyTest, OwnSurfaceCaptureNeedsNoGrant) {
  auto a = app("selfie");
  // No input at all — capturing your own pixels is always free.
  auto img = shot_.capture_surface(a.client, a.window);
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(shot_.stats().own_surface_captures, 1u);
  EXPECT_EQ(shot_.stats().captures_granted, 0u);
}

TEST_F(WlScreencopyTest, ForeignSurfaceCaptureIsMediated) {
  auto victim = app("victim");
  auto snoop = app("snoop", {300, 300, 100, 100});
  const auto denied = shot_.capture_surface(snoop.client, victim.window);
  EXPECT_EQ(denied.status().code(), Code::kBadAccess);
  click_into(snoop);
  auto granted = shot_.capture_surface(snoop.client, victim.window);
  EXPECT_TRUE(granted.is_ok());
  EXPECT_EQ(shot_.stats().captures_denied, 1u);
  EXPECT_EQ(shot_.stats().captures_granted, 1u);
}

TEST_F(WlScreencopyTest, MissingSurfaceIsBadWindow) {
  auto a = app("confused");
  click_into(a);
  EXPECT_EQ(shot_.capture_surface(a.client, 9999).status().code(),
            Code::kBadWindow);
}

TEST_F(WlScreencopyTest, CompositeRespectsStackingOrder) {
  auto below = app("below", {0, 0, 10, 10});
  auto above = app("above", {0, 0, 10, 10});
  display::Surface* top = comp_.surface(above.window);
  ASSERT_NE(top, nullptr);
  top->fill(0xAB);
  comp_.surface(below.window)->fill(0x11);
  const display::Image img = shot_.composite_output();
  // The overlapping pixel shows the topmost surface's contents.
  EXPECT_EQ(img.pixels[5 * static_cast<std::size_t>(img.width) + 5], 0xABu);
}

TEST_F(WlScreencopyTest, BaselineCaptureIsAlwaysGranted) {
  core::OverhaulConfig cfg = core::OverhaulConfig::baseline();
  cfg.display_backend = core::DisplayBackendKind::kWayland;
  core::OverhaulSystem baseline(cfg);
  auto a = baseline.launch_gui_app("/usr/bin/spy", "spy", {0, 0, 50, 50})
               .value();
  // No input ever — the unmodified compositor hands over the output.
  EXPECT_TRUE(
      baseline.compositor().screencopy().capture_output(a.client).is_ok());
}

}  // namespace
}  // namespace overhaul::wl

// Trusted input path on the Wayland backend (§IV-A translated): hardware
// events mint serials and interaction records at delivery time; the
// clickjacking visibility threshold suppresses notifications for surfaces
// that have not been on screen long enough.
#include "wl/compositor.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::wl {
namespace {

core::OverhaulConfig wayland_config() {
  core::OverhaulConfig cfg;
  cfg.display_backend = core::DisplayBackendKind::kWayland;
  return cfg;
}

class WlCompositorTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_{wayland_config()};
  WlCompositor& comp_ = sys_.compositor();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      display::Rect r = {0, 0, 200, 200},
                                      bool settle = true) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r, settle).value();
  }

  sim::Timestamp interaction_ts(kern::Pid pid) {
    return sys_.kernel().processes().lookup(pid)->interaction_ts;
  }
};

TEST_F(WlCompositorTest, BootsTheWaylandBackendBehindTheSeam) {
  EXPECT_EQ(sys_.display().backend_kind(), core::DisplayBackendKind::kWayland);
  EXPECT_EQ(&sys_.display().alert_overlay(), &comp_.alert_overlay());
  EXPECT_EQ(sys_.display().server_pid(), comp_.server_pid());
  // The compositor process exists and is the authorized display manager.
  auto* task = sys_.kernel().processes().lookup(comp_.server_pid());
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->exe_path, kCompositorExe);
}

TEST_F(WlCompositorTest, HardwareClickCreatesInteractionRecord) {
  auto a = app("victim");
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  sys_.input().click(100, 100);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
  EXPECT_EQ(comp_.input_stats().interaction_notifications, 1u);
  EXPECT_EQ(comp_.input_stats().hardware_events, 1u);
}

TEST_F(WlCompositorTest, HardwareKeyGoesToKeyboardFocus) {
  auto a = app("editor");
  sys_.input().click(100, 100);  // sets keyboard focus
  const auto before = comp_.input_stats().interaction_notifications;
  sys_.advance(sim::Duration::seconds(1));
  sys_.input().key(42);
  EXPECT_EQ(comp_.input_stats().interaction_notifications, before + 1);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
}

TEST_F(WlCompositorTest, EventCarriesCompositorMintedSerial) {
  auto a = app("victim");
  sys_.input().click(100, 100);
  WlConnection* c = comp_.connection(a.client);
  ASSERT_NE(c, nullptr);
  // Skip the launch-time xdg configure and the keyboard enter; keep the
  // pointer button itself.
  WlEvent ev;
  bool saw_button = false;
  while (c->has_events()) {
    WlEvent next = c->next_event();
    if (next.type == WlEventType::kPointerButton) {
      saw_button = true;
      ev = next;
    }
  }
  ASSERT_TRUE(saw_button);
  EXPECT_NE(ev.serial, kInvalidSerial);
  EXPECT_EQ(ev.serial, comp_.seat().last_minted());
  EXPECT_EQ(c->last_input_serial(), ev.serial);
  EXPECT_TRUE(comp_.seat().serial_valid(a.client, ev.serial));
}

// Clickjacking: a surface mapped less than the threshold ago gets the event
// but mints no interaction record.
TEST_F(WlCompositorTest, FreshlyMappedSurfaceIsSuppressed) {
  auto a = app("popup", {0, 0, 200, 200}, /*settle=*/false);
  sys_.input().click(100, 100);
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  EXPECT_EQ(comp_.input_stats().clickjack_suppressed, 1u);
  EXPECT_EQ(comp_.input_stats().interaction_notifications, 0u);
  // The event itself is still delivered — apps must keep working.
  WlConnection* c = comp_.connection(a.client);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->has_events());
}

TEST_F(WlCompositorTest, SurfaceBecomesEligibleAfterThreshold) {
  auto a = app("patient", {0, 0, 200, 200}, /*settle=*/false);
  sys_.advance(comp_.config().visibility_threshold);
  sys_.input().click(100, 100);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
}

TEST_F(WlCompositorTest, InputOnlySurfaceNeverMintsInteractions) {
  auto a = app("overlay");
  ASSERT_TRUE(comp_.set_input_only(a.client, a.window, true).is_ok());
  sys_.advance(sim::Duration::seconds(5));
  sys_.input().click(100, 100);
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  EXPECT_EQ(comp_.input_stats().clickjack_suppressed, 1u);
}

// Re-mapping restarts the visibility clock (the pop-over attack).
TEST_F(WlCompositorTest, RemapRestartsTheVisibilityClock) {
  auto a = app("popover");
  ASSERT_TRUE(comp_.hide_surface(a.client, a.window).is_ok());
  sys_.advance(sim::Duration::seconds(2));
  ASSERT_TRUE(comp_.show_surface(a.client, a.window).is_ok());
  sys_.input().click(100, 100);
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  EXPECT_EQ(comp_.input_stats().clickjack_suppressed, 1u);
}

TEST_F(WlCompositorTest, ConfigureMoveRestartsTheVisibilityClock) {
  auto a = app("mover");
  ASSERT_TRUE(
      comp_.configure_surface(a.client, a.window, {50, 50, 200, 200}).is_ok());
  sys_.input().click(120, 120);
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
}

// Activation raise does NOT restart the clock — the surface stayed visible.
TEST_F(WlCompositorTest, RaiseDoesNotRestartTheVisibilityClock) {
  auto a = app("stable");
  auto b = app("other", {300, 300, 50, 50});
  (void)b;
  ASSERT_TRUE(comp_.raise_surface(a.client, a.window).is_ok());
  sys_.input().click(100, 100);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
}

TEST_F(WlCompositorTest, ClickOnBareOutputIsANoop) {
  auto a = app("lonely", {0, 0, 50, 50});
  sys_.input().click(900, 700);  // no surface there
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  EXPECT_EQ(comp_.input_stats().hardware_events, 0u);
}

TEST_F(WlCompositorTest, ClickGoesToTopmostMappedSurface) {
  auto below = app("below", {0, 0, 200, 200});
  auto above = app("above", {0, 0, 200, 200});
  sys_.input().click(100, 100);
  EXPECT_EQ(interaction_ts(above.pid), sys_.clock().now());
  EXPECT_TRUE(interaction_ts(below.pid).is_never());
}

TEST_F(WlCompositorTest, InputTraceRecordsDeliveryAndSuppression) {
  auto a = app("traced");
  sys_.input().click(100, 100);
  auto b = app("fresh", {300, 300, 100, 100}, /*settle=*/false);
  (void)b;
  sys_.input().click(350, 350);
  ASSERT_EQ(comp_.input_trace().size(), 2u);
  EXPECT_EQ(comp_.input_trace()[0].receiver_pid, a.pid);
  EXPECT_TRUE(comp_.input_trace()[0].produced_notification);
  EXPECT_FALSE(comp_.input_trace()[1].produced_notification);
  EXPECT_TRUE(comp_.input_trace()[1].clickjack_suppressed);
}

TEST_F(WlCompositorTest, BaselineCompositorSendsNoNotifications) {
  core::OverhaulConfig cfg = core::OverhaulConfig::baseline();
  cfg.display_backend = core::DisplayBackendKind::kWayland;
  core::OverhaulSystem baseline(cfg);
  auto a =
      baseline.launch_gui_app("/usr/bin/app", "app", {0, 0, 200, 200}).value();
  baseline.input().click(100, 100);
  // The event is delivered but no interaction record exists anywhere.
  EXPECT_EQ(baseline.compositor().input_stats().hardware_events, 1u);
  EXPECT_EQ(baseline.compositor().input_stats().interaction_notifications, 0u);
  EXPECT_TRUE(baseline.kernel()
                  .processes()
                  .lookup(a.pid)
                  ->interaction_ts.is_never());
}

}  // namespace
}  // namespace overhaul::wl

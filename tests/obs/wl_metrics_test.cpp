// Cross-check of the Wayland backend's wl.* counters against the audit log
// and the compositor's own stats on the Figure 2 clipboard flow: the
// observability layer must tell the same story as the mediation layer.
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Decision;
using util::Op;

class WlMetricsTest : public ::testing::Test {
 protected:
  WlMetricsTest() {
    core::OverhaulConfig cfg;
    cfg.display_backend = core::DisplayBackendKind::kWayland;
    sys_ = std::make_unique<core::OverhaulSystem>(cfg);
  }

  std::uint64_t counter(const std::string& name) {
    return sys_->obs().metrics.counter_value(name);
  }

  std::unique_ptr<core::OverhaulSystem> sys_;
};

TEST_F(WlMetricsTest, Fig2FlowCountersMatchAuditLog) {
  auto pm = apps::PasswordManagerApp::launch(*sys_).value();
  auto editor = apps::EditorApp::launch(*sys_).value();
  auto spy = apps::Spyware::install(*sys_).value();
  pm->store_password("bank", "hunter2");

  // User-driven copy and paste: granted.
  auto [px, py] = pm->click_point();
  sys_->input().click(px, py);
  ASSERT_TRUE(pm->copy_password_to_clipboard("bank").is_ok());
  auto [ex, ey] = editor->click_point();
  sys_->input().click(ex, ey);
  ASSERT_TRUE(editor->paste_from(*pm).is_ok());

  // The sniffer after the dust settles: denied. It also forges a serial.
  sys_->advance(sim::Duration::seconds(5));
  ASSERT_FALSE(spy->try_sniff_clipboard(*pm, pm->pending_clipboard()).is_ok());
  ASSERT_FALSE(
      sys_->compositor()
          .data_devices()
          .set_selection(spy->client(), 424242, {"text/plain"})
          .is_ok());

  auto& audit = sys_->audit();
  // Clipboard counters tell the audit log's story.
  EXPECT_EQ(counter("wl.clipboard.copies_granted"),
            audit.count(Op::kCopy, Decision::kGrant));
  EXPECT_EQ(counter("wl.clipboard.copies_denied"),
            audit.count(Op::kCopy, Decision::kDeny));
  EXPECT_EQ(counter("wl.clipboard.pastes_granted"),
            audit.count(Op::kPaste, Decision::kGrant));
  EXPECT_EQ(counter("wl.clipboard.pastes_denied"),
            audit.count(Op::kPaste, Decision::kDeny));
  EXPECT_EQ(counter("wl.clipboard.copies_granted"), 1u);
  EXPECT_EQ(counter("wl.clipboard.copies_denied"), 1u);
  EXPECT_EQ(counter("wl.clipboard.pastes_granted"), 1u);
  EXPECT_EQ(counter("wl.clipboard.pastes_denied"), 1u);

  // Input-path counters agree with the compositor's own stats.
  const auto& stats = sys_->compositor().input_stats();
  EXPECT_EQ(counter("wl.input.hardware_events"), stats.hardware_events);
  EXPECT_EQ(counter("wl.input.notifications"),
            stats.interaction_notifications);
  EXPECT_EQ(counter("wl.input.clickjack_suppressed"),
            stats.clickjack_suppressed);
  EXPECT_EQ(counter("wl.input.forged_serials"),
            sys_->compositor().stats().forged_serials);
  EXPECT_EQ(counter("wl.input.hardware_events"), 2u);
  EXPECT_EQ(counter("wl.input.forged_serials"), 1u);
  // Every notification the compositor sent arrived at the monitor.
  EXPECT_EQ(counter("monitor.notifications"), stats.interaction_notifications);
}

TEST_F(WlMetricsTest, ScreencopyCountersMatchAuditLog) {
  auto shot = sys_->launch_gui_app("/usr/bin/shot", "shot", {0, 0, 100, 100})
                  .value();
  auto spy = apps::Spyware::install(*sys_).value();

  sys_->input().click(50, 50);
  ASSERT_TRUE(
      sys_->compositor().screencopy().capture_output(shot.client).is_ok());
  sys_->advance(sim::Duration::seconds(5));
  ASSERT_FALSE(spy->try_screenshot().is_ok());

  auto& audit = sys_->audit();
  EXPECT_EQ(counter("wl.screencopy.captures_granted"),
            audit.count(Op::kScreenCapture, Decision::kGrant));
  EXPECT_EQ(counter("wl.screencopy.captures_denied"),
            audit.count(Op::kScreenCapture, Decision::kDeny));
  EXPECT_EQ(counter("wl.screencopy.captures_granted"), 1u);
  EXPECT_EQ(counter("wl.screencopy.captures_denied"), 1u);
}

}  // namespace
}  // namespace overhaul

// §V-C applicability & false positives: the 58-app device pool and the
// 50-app clipboard pool reproduce the paper's findings — zero broken apps,
// exactly one spurious alert (Skype's launch probe), delayed screenshots
// denied by design.
#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "apps/screenshot.h"
#include "core/system.h"

namespace overhaul {
namespace {

using apps::clipboard_catalog;
using apps::device_catalog;
using apps::run_catalog;
using apps::run_catalog_entry;

TEST(CatalogTest, PoolSizesMatchPaper) {
  EXPECT_EQ(device_catalog().size(), 58u);
  EXPECT_EQ(clipboard_catalog().size(), 50u);
}

TEST(CatalogTest, ExactlyOneLaunchProber) {
  int probers = 0;
  for (const auto& e : device_catalog()) probers += e.probes_cam_at_launch;
  EXPECT_EQ(probers, 1);  // Skype
}

TEST(CatalogTest, DeviceCatalogNoFalsePositives) {
  core::OverhaulSystem sys;
  const auto summary = run_catalog(sys, device_catalog());
  EXPECT_EQ(summary.apps, 58);
  EXPECT_EQ(summary.broken, 0);            // "no malfunctioning application"
  EXPECT_EQ(summary.spurious_alerts, 1);   // Skype's launch probe
  EXPECT_GT(summary.delayed_denials, 0);   // the documented limitation
  EXPECT_EQ(summary.total_denials, 0);
}

TEST(CatalogTest, ClipboardCatalogNoFalsePositives) {
  core::OverhaulSystem sys;
  const auto summary = run_catalog(sys, clipboard_catalog());
  EXPECT_EQ(summary.apps, 50);
  EXPECT_EQ(summary.broken, 0);
  EXPECT_EQ(summary.spurious_alerts, 0);
  EXPECT_EQ(summary.total_denials, 0);
}

TEST(CatalogTest, SkypeEntryProducesSpuriousAlertOnly) {
  core::OverhaulSystem sys;
  const auto& skype = device_catalog().front();
  ASSERT_EQ(skype.name, "skype");
  const auto r = run_catalog_entry(sys, skype);
  EXPECT_TRUE(r.spurious_alert);
  EXPECT_FALSE(r.functionality_broken());  // the later call still works
  EXPECT_GE(r.grants, 2);                  // mic + cam after user clicks
}

TEST(CatalogTest, DelayedScreenshotLimitation) {
  core::OverhaulSystem sys;
  auto tool = apps::ScreenshotApp::launch(sys).value();
  auto [cx, cy] = tool->click_point();

  // Immediate capture works.
  sys.input().click(cx, cy);
  EXPECT_TRUE(tool->capture_now().is_ok());

  // Delay 10 s: interaction expires before the scheduler fires the shot.
  sys.input().click(cx, cy);
  bool denied = false;
  tool->capture_after(sim::Duration::seconds(10),
                      [&](util::Result<display::Image> img) {
                        denied = !img.is_ok();
                      });
  sys.advance(sim::Duration::seconds(11));
  EXPECT_TRUE(denied);

  // A delay shorter than δ still works.
  sys.input().click(cx, cy);
  bool granted = false;
  tool->capture_after(sim::Duration::seconds(1),
                      [&](util::Result<display::Image> img) {
                        granted = img.is_ok();
                      });
  sys.advance(sim::Duration::seconds(2));
  EXPECT_TRUE(granted);
}

TEST(CatalogTest, BaselineRunsEverythingToo) {
  // Sanity: the workflows themselves are valid (no protocol bugs) — at
  // baseline nothing is ever denied, including the launch probe.
  core::OverhaulSystem sys(core::OverhaulConfig::baseline());
  const auto summary = run_catalog(sys, device_catalog());
  EXPECT_EQ(summary.broken, 0);
  EXPECT_EQ(summary.spurious_alerts, 0);
  EXPECT_EQ(summary.delayed_denials, 0);
  EXPECT_EQ(summary.total_denials, 0);
}

TEST(CatalogTest, CategoryNamesResolve) {
  for (const auto& e : device_catalog()) {
    EXPECT_NE(apps::category_name(e.category), "?") << e.name;
  }
}

}  // namespace
}  // namespace overhaul

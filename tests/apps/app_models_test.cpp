// Edge-case unit tests for the application models (beyond the scenario
// integration tests).
#include <gtest/gtest.h>

#include "apps/browser.h"
#include "apps/launcher.h"
#include "apps/password_manager.h"
#include "apps/screenshot.h"
#include "apps/spyware.h"
#include "apps/video_conf.h"
#include "core/system.h"

namespace overhaul::apps {
namespace {

using util::Code;

class AppModelsTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

TEST_F(AppModelsTest, VideoConfEndCallIdempotent) {
  auto skype = VideoConfApp::launch(sys_).value();
  auto [cx, cy] = skype->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(skype->start_call().ok());
  skype->end_call();
  skype->end_call();  // double hang-up must not blow up
}

TEST_F(AppModelsTest, VideoConfRunsAsDesktopUser) {
  auto skype = VideoConfApp::launch(sys_).value();
  EXPECT_EQ(sys_.kernel().processes().lookup(skype->pid())->uid, 1000);
}

TEST_F(AppModelsTest, BrowserTabIndexValidation) {
  auto browser = MultiProcessBrowser::launch(sys_).value();
  EXPECT_EQ(browser->command_start_camera(0).code(), Code::kInvalidArgument);
  EXPECT_EQ(browser->tab_poll_and_run(7).code(), Code::kInvalidArgument);
  auto tab = browser->open_tab().value();
  EXPECT_EQ(tab, 0u);
  EXPECT_EQ(browser->tab_count(), 1u);
}

TEST_F(AppModelsTest, BrowserTabPollWithoutCommandBlocks) {
  auto browser = MultiProcessBrowser::launch(sys_).value();
  auto tab = browser->open_tab().value();
  EXPECT_EQ(browser->tab_poll_and_run(tab).code(), Code::kWouldBlock);
}

TEST_F(AppModelsTest, BrowserTabsGetDistinctChannels) {
  auto browser = MultiProcessBrowser::launch(sys_).value();
  auto t0 = browser->open_tab().value();
  auto t1 = browser->open_tab().value();
  EXPECT_NE(browser->tab(t0).channel.get(), browser->tab(t1).channel.get());
  EXPECT_NE(browser->tab(t0).pid, browser->tab(t1).pid);
}

TEST_F(AppModelsTest, PasswordManagerVault) {
  auto pm = PasswordManagerApp::launch(sys_).value();
  pm->store_password("a", "1");
  pm->store_password("b", "2");
  EXPECT_EQ(pm->password_for("a"), "1");
  EXPECT_EQ(pm->password_for("missing"), "");
  pm->store_password("a", "updated");
  EXPECT_EQ(pm->password_for("a"), "updated");
}

TEST_F(AppModelsTest, SpywareAttemptCountersTrackFailures) {
  auto spy = Spyware::install(sys_).value();
  (void)spy->try_screenshot();
  (void)spy->try_screenshot();
  (void)spy->try_record_microphone();
  EXPECT_EQ(spy->attempts().screenshots, 2);
  EXPECT_EQ(spy->attempts().mic, 1);
  EXPECT_EQ(spy->attempts().clipboard, 0);
  EXPECT_TRUE(spy->loot().empty());
  EXPECT_EQ(spy->loot().total(), 0);
}

TEST_F(AppModelsTest, SpywareWindowNeverMapped) {
  auto spy = Spyware::install(sys_).value();
  const display::Surface* win = sys_.xserver().surface(spy->window());
  ASSERT_NE(win, nullptr);
  EXPECT_FALSE(win->mapped());
}

TEST_F(AppModelsTest, ScreenshotDelayedCallbackOrdering) {
  auto tool = ScreenshotApp::launch(sys_).value();
  auto [cx, cy] = tool->click_point();
  sys_.input().click(cx, cy);
  std::vector<int> order;
  tool->capture_after(sim::Duration::seconds(1),
                      [&](util::Result<display::Image>) { order.push_back(1); });
  tool->capture_after(sim::Duration::seconds(3),
                      [&](util::Result<display::Image>) { order.push_back(3); });
  sys_.advance(sim::Duration::seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_F(AppModelsTest, LauncherSpawnedShotIsChildProcess) {
  auto run = LauncherApp::launch(sys_).value();
  auto shot = run->run_screenshot_program().value();
  EXPECT_TRUE(
      sys_.kernel().processes().is_descendant(run->pid(), shot->pid()));
  EXPECT_EQ(sys_.kernel().processes().lookup(shot->pid())->comm, "shot");
}

TEST_F(AppModelsTest, GuiAppClickPointInsideWindow) {
  auto pm = PasswordManagerApp::launch(sys_).value();
  auto [cx, cy] = pm->click_point();
  const auto& r = sys_.xserver().surface(pm->window())->rect();
  EXPECT_TRUE(r.contains(cx, cy));
}

TEST_F(AppModelsTest, PumpEventsDrainsQueue) {
  auto pm = PasswordManagerApp::launch(sys_).value();
  auto [cx, cy] = pm->click_point();
  sys_.input().click(cx, cy);
  sys_.input().click(cx, cy);
  EXPECT_EQ(pm->pump_events().size(), 2u);
  EXPECT_TRUE(pm->pump_events().empty());
}

}  // namespace
}  // namespace overhaul::apps

// Figure 3: a program launcher executes a screen-capture program — P1
// (fork/exec propagation) is what lets Shot's request correlate with the
// user's interaction with Run.
#include <gtest/gtest.h>

#include "apps/launcher.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;

class Fig3Test : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

TEST_F(Fig3Test, LaunchedShotInheritsInteraction) {
  auto run = apps::LauncherApp::launch(sys_).value();
  // (1) the user types "shot" + Enter into the launcher.
  auto [cx, cy] = run->click_point();
  sys_.input().click(cx, cy);
  sys_.input().press_enter();
  // (4) Run forks + execs Shot.
  auto shot = run->run_screenshot_program().value();
  EXPECT_NE(shot->pid(), run->pid());
  // (5) Shot's capture succeeds thanks to P1.
  auto img = shot->capture_screen();
  EXPECT_TRUE(img.is_ok()) << img.status().to_string();
}

TEST_F(Fig3Test, WithoutUserInputShotDenied) {
  auto run = apps::LauncherApp::launch(sys_).value();
  sys_.advance(sim::Duration::seconds(10));
  // A launcher autostarting something without the user typing anything.
  auto shot = run->run_screenshot_program().value();
  EXPECT_EQ(shot->capture_screen().code(), Code::kBadAccess);
}

TEST_F(Fig3Test, InheritedRecordExpiresLikeAnyOther) {
  auto run = apps::LauncherApp::launch(sys_).value();
  auto [cx, cy] = run->click_point();
  sys_.input().click(cx, cy);
  auto shot = run->run_screenshot_program().value();
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  EXPECT_EQ(shot->capture_screen().code(), Code::kBadAccess);
}

TEST_F(Fig3Test, GrandchildAlsoInherits) {
  // P1 composes across arbitrary chain length: Run → wrapper → Shot.
  auto run = apps::LauncherApp::launch(sys_).value();
  auto [cx, cy] = run->click_point();
  sys_.input().click(cx, cy);

  auto& k = sys_.kernel();
  auto wrapper = k.sys_spawn(run->pid(), "/usr/bin/sh-wrapper", "sh").value();
  auto shot_pid = k.sys_spawn(wrapper, "/usr/bin/shot", "shot").value();
  auto client = sys_.xserver().attach_client(shot_pid).value();
  auto img = sys_.xserver().screen().get_image(client, x11::kRootWindow);
  EXPECT_TRUE(img.is_ok());
}

TEST_F(Fig3Test, ExecDoesNotLaunderPtraceState) {
  // A traced launcher's child keeps being policy-denied while traced.
  auto run = apps::LauncherApp::launch(sys_).value();
  auto [cx, cy] = run->click_point();
  sys_.input().click(cx, cy);
  auto shot = run->run_screenshot_program().value();
  // The launcher attaches to its own child to puppeteer it (the §IV-B attack).
  ASSERT_TRUE(sys_.kernel().sys_ptrace_attach(run->pid(), shot->pid()).is_ok());
  EXPECT_EQ(shot->capture_screen().code(), Code::kBadAccess);
  // Detach restores the (still fresh) inherited permission.
  ASSERT_TRUE(sys_.kernel().sys_ptrace_detach(run->pid(), shot->pid()).is_ok());
  EXPECT_TRUE(shot->capture_screen().is_ok());
}

}  // namespace
}  // namespace overhaul

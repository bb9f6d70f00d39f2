// Figure 2: protecting copy & paste against clipboard sniffing.
// Keystrokes → N_{A,t} → paste request → Q_{A,t+n} → grant iff n < δ.
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;

class Fig2Test : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;

  void SetUp() override {
    pm_ = apps::PasswordManagerApp::launch(sys_).value();
    editor_ = apps::EditorApp::launch(sys_).value();
    pm_->store_password("bank", "s3cr3t!");
  }

  void user_clicks(const apps::GuiApp& app) {
    (void)sys_.xserver().raise_surface(app.client(), app.window());
    auto [cx, cy] = app.click_point();
    sys_.input().click(cx, cy);
  }

  std::unique_ptr<apps::PasswordManagerApp> pm_;
  std::unique_ptr<apps::EditorApp> editor_;
};

TEST_F(Fig2Test, UserDrivenCopyPasteWorks) {
  user_clicks(*pm_);
  sys_.input().press_copy_chord();
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());

  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  auto pasted = editor_->paste_from(*pm_);
  ASSERT_TRUE(pasted.is_ok());
  EXPECT_EQ(pasted.value(), "s3cr3t!");

  // Clipboard decisions are audited (kCopy grant + kPaste grant), but no
  // alert overlay is shown for them (§V-C).
  EXPECT_EQ(sys_.audit().count(util::Op::kCopy, util::Decision::kGrant), 1u);
  EXPECT_EQ(sys_.audit().count(util::Op::kPaste, util::Decision::kGrant), 1u);
  EXPECT_EQ(sys_.xserver().alert_overlay().shown_count(), 0u);
}

TEST_F(Fig2Test, BackgroundSnifferBlocked) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());

  auto spy = apps::Spyware::install(sys_).value();
  sys_.advance(sim::Duration::seconds(5));
  auto s = spy->try_sniff_clipboard(*pm_, pm_->pending_clipboard());
  EXPECT_EQ(s.code(), Code::kBadAccess);
  EXPECT_TRUE(spy->loot().empty());
  EXPECT_EQ(sys_.audit().count(util::Op::kPaste, util::Decision::kDeny), 1u);
}

TEST_F(Fig2Test, SnifferStealsAtBaseline) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto pm = apps::PasswordManagerApp::launch(base).value();
  pm->store_password("bank", "s3cr3t!");
  ASSERT_TRUE(pm->copy_password_to_clipboard("bank").is_ok());

  auto spy = apps::Spyware::install(base).value();
  ASSERT_TRUE(spy->try_sniff_clipboard(*pm, pm->pending_clipboard()).is_ok());
  ASSERT_EQ(spy->loot().clipboard.size(), 1u);
  EXPECT_EQ(spy->loot().clipboard[0], "s3cr3t!");
}

TEST_F(Fig2Test, PasteDeniedWhenChordTooOld) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.advance(sys_.config().delta + sim::Duration::seconds(1));
  EXPECT_EQ(editor_->paste_from(*pm_).code(), Code::kBadAccess);
}

TEST_F(Fig2Test, EachPasteNeedsItsOwnInteraction) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  ASSERT_TRUE(editor_->paste_from(*pm_).is_ok());
  // Second paste long after: denied until the user interacts again.
  sys_.advance(sim::Duration::seconds(10));
  EXPECT_EQ(editor_->paste_from(*pm_).code(), Code::kBadAccess);
  user_clicks(*editor_);
  EXPECT_TRUE(editor_->paste_from(*pm_).is_ok());
}

}  // namespace
}  // namespace overhaul

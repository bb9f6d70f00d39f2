// Prompt-mode tests (§IV-A's "unforgeable prompt" sketch made concrete).
#include "x11/prompt.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using util::Code;
using util::Decision;
using util::Op;

core::OverhaulConfig prompt_config() {
  core::OverhaulConfig cfg;
  cfg.prompt_mode = true;
  return cfg;
}

class PromptTest : public ::testing::Test {
 protected:
  PromptTest() : sys_(prompt_config()) {}
  core::OverhaulSystem sys_;

  // The simulated human answering via real hardware clicks.
  void answer_with_hardware(bool allow) {
    sys_.xserver().prompts().set_user_agent([this, allow](const Prompt& p) {
      const Rect& b = allow ? p.allow_button : p.deny_button;
      sys_.input().click(b.x + 1, b.y + 1);
    });
  }
};

TEST_F(PromptTest, AllowGrantsWithoutPriorInteraction) {
  answer_with_hardware(true);
  auto daemon = sys_.launch_daemon("/usr/bin/backup", "backup").value();
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());
  EXPECT_EQ(sys_.xserver().prompts().stats().prompts_shown, 1u);
  EXPECT_EQ(sys_.xserver().prompts().stats().allowed, 1u);
  EXPECT_EQ(sys_.kernel().monitor().stats().prompted, 1u);
}

TEST_F(PromptTest, DenyBlocks) {
  answer_with_hardware(false);
  auto daemon = sys_.launch_daemon("/usr/bin/backup", "backup").value();
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().prompts().stats().denied, 1u);
}

TEST_F(PromptTest, UnansweredPromptFailsClosed) {
  // No user agent: nobody clicks; the request must be denied.
  auto daemon = sys_.launch_daemon("/usr/bin/backup", "backup").value();
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().prompts().stats().unanswered, 1u);
}

TEST_F(PromptTest, SyntheticClicksCannotAnswer) {
  // S2 for prompts: the malware tries to approve its own prompt via XTEST.
  auto mal_gui = sys_.launch_gui_app("/home/user/.mal", "mal").value();
  sys_.xserver().prompts().set_user_agent([&](const Prompt& p) {
    (void)sys_.xserver().xtest_fake_button(mal_gui.client,
                                           p.allow_button.x + 1,
                                           p.allow_button.y + 1);
  });
  auto fd = sys_.kernel().sys_open(mal_gui.pid,
                                   core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().prompts().stats().forged_clicks_ignored, 1u);
  EXPECT_EQ(sys_.xserver().prompts().stats().unanswered, 1u);
}

TEST_F(PromptTest, PromptCarriesSharedSecret) {
  answer_with_hardware(true);
  auto daemon = sys_.launch_daemon("/usr/bin/backup", "backup").value();
  (void)sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                               kern::OpenFlags::kRead);
  const auto& history = sys_.xserver().prompts().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].secret, sys_.config().shared_secret);
  EXPECT_NE(history[0].text.find("backup"), std::string::npos);
  EXPECT_NE(history[0].text.find("mic"), std::string::npos);
}

TEST_F(PromptTest, FreshInteractionSkipsPrompt) {
  // Temporal correlation still grants silently; prompts appear only for
  // would-be denials.
  answer_with_hardware(true);
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());
  EXPECT_EQ(sys_.xserver().prompts().stats().prompts_shown, 0u);
}

TEST_F(PromptTest, PtraceDenialNotPromptable) {
  answer_with_hardware(true);
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  sys_.kernel().processes().lookup(app.pid)->traced_by = 1;
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().prompts().stats().prompts_shown, 0u);
}

TEST_F(PromptTest, ClipboardNeverPrompts) {
  answer_with_hardware(true);
  auto app = sys_.launch_gui_app("/usr/bin/editor", "editor").value();
  auto s = sys_.xserver().selections().set_selection_owner(
      app.client, AtomRegistry::kClipboard, app.window);
  EXPECT_EQ(s.code(), Code::kBadAccess);  // transparent denial, no prompt
  EXPECT_EQ(sys_.xserver().prompts().stats().prompts_shown, 0u);
}

TEST_F(PromptTest, PromptClickIsNotAnInteractionForApps) {
  // Clicking "Allow" must not seed the requesting app's interaction record
  // — it authorizes the one pending request only.
  answer_with_hardware(true);
  auto daemon = sys_.launch_daemon("/usr/bin/backup", "backup").value();
  (void)sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                               kern::OpenFlags::kRead);
  EXPECT_TRUE(sys_.kernel()
                  .processes()
                  .lookup(daemon)
                  ->interaction_ts.is_never());
  // A follow-up open without a new answer is denied again.
  sys_.xserver().prompts().set_user_agent({});
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST_F(PromptTest, PromptModeOffNeverPrompts) {
  core::OverhaulSystem plain;  // default config: prompt_mode = false
  auto daemon = plain.launch_daemon("/usr/bin/backup", "backup").value();
  auto fd = plain.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                    kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(plain.xserver().prompts().stats().prompts_shown, 0u);
}

}  // namespace
}  // namespace overhaul::x11

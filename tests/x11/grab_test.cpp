// Input-grab tests: the keylogger vector, and why Overhaul's visibility
// rule keeps a grab from minting permissions.
#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using util::Code;

class GrabTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      Rect r = {0, 0, 150, 150},
                                      bool settle = true) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r, settle).value();
  }
};

TEST_F(GrabTest, GrabValidation) {
  auto a = app("a");
  auto b = app("b", {300, 300, 50, 50});
  EXPECT_EQ(x_.grab_keyboard(a.client, b.window).code(), Code::kBadAccess);
  EXPECT_EQ(x_.grab_keyboard(a.client, 9999).code(), Code::kBadWindow);
  ASSERT_TRUE(x_.grab_keyboard(a.client, a.window).is_ok());
  EXPECT_EQ(x_.grab_keyboard(b.client, b.window).code(), Code::kBusy);
  EXPECT_EQ(x_.ungrab_keyboard(b.client).code(), Code::kBadAccess);
  ASSERT_TRUE(x_.ungrab_keyboard(a.client).is_ok());
  EXPECT_TRUE(x_.grab_keyboard(b.client, b.window).is_ok());
}

TEST_F(GrabTest, KeyboardGrabStealsKeystrokes) {
  auto editor = app("editor");
  auto logger = app("logger", {300, 300, 50, 50});
  // Focus the editor; then the logger grabs the keyboard.
  sys_.input().click(10, 10);
  x_.client(editor.client)->drain();
  ASSERT_TRUE(x_.grab_keyboard(logger.client, logger.window).is_ok());
  sys_.input().key(42);
  // The keystroke went to the logger, not the focused editor.
  EXPECT_FALSE(x_.client(editor.client)->has_events());
  ASSERT_TRUE(x_.client(logger.client)->has_events());
  EXPECT_EQ(x_.client(logger.client)->next_event().keycode, 42);
}

TEST_F(GrabTest, VisibleGrabberDoesGetInteractions) {
  // A *visible, long-mapped* grabber is treated like any interactive app:
  // the user typing into it (e.g. a screen-lock dialog) is real interaction.
  auto locker = app("screenlock");
  ASSERT_TRUE(x_.grab_keyboard(locker.client, locker.window).is_ok());
  sys_.input().key(13);
  EXPECT_FALSE(sys_.kernel()
                   .processes()
                   .lookup(locker.pid)
                   ->interaction_ts.is_never());
}

TEST_F(GrabTest, InvisibleGrabberMintNoPermissions) {
  // The keylogger: grabs from an unmapped window. It receives the
  // keystroke data (the X-level hole), but the clickjacking visibility rule
  // denies it interaction records — so no device unlocks.
  auto victim = app("editor");
  (void)victim;  // present so the keystrokes have a legitimate destination
  auto logger = app("keylog", {300, 300, 50, 50});
  ASSERT_TRUE(x_.hide_surface(logger.client, logger.window).is_ok());
  ASSERT_TRUE(x_.grab_keyboard(logger.client, logger.window).is_ok());
  x_.client(logger.client)->drain();

  sys_.input().key(1);
  sys_.input().key(2);
  ASSERT_TRUE(x_.client(logger.client)->has_events());  // data captured...
  EXPECT_TRUE(sys_.kernel()
                  .processes()
                  .lookup(logger.pid)
                  ->interaction_ts.is_never());  // ...but no interaction
  auto fd = sys_.kernel().sys_open(logger.pid,
                                   core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST_F(GrabTest, FreshlyMappedGrabberAlsoSuppressed) {
  auto logger = app("keylog", {300, 300, 50, 50}, /*settle=*/false);
  ASSERT_TRUE(x_.grab_keyboard(logger.client, logger.window).is_ok());
  sys_.input().key(7);
  EXPECT_TRUE(sys_.kernel()
                  .processes()
                  .lookup(logger.pid)
                  ->interaction_ts.is_never());
}

TEST_F(GrabTest, PointerGrabInterceptsClicksEverywhere) {
  auto victim = app("victim");
  auto grabber = app("grabber", {300, 300, 50, 50});
  ASSERT_TRUE(x_.grab_pointer(grabber.client, grabber.window).is_ok());
  x_.client(victim.client)->drain();
  x_.client(grabber.client)->drain();
  sys_.input().click(10, 10);  // over the victim's window
  EXPECT_FALSE(x_.client(victim.client)->has_events());
  EXPECT_TRUE(x_.client(grabber.client)->has_events());
  // The visible grabber legitimately receives the interaction.
  EXPECT_FALSE(sys_.kernel()
                   .processes()
                   .lookup(grabber.pid)
                   ->interaction_ts.is_never());
  ASSERT_TRUE(x_.ungrab_pointer(grabber.client).is_ok());
  sys_.input().click(10, 10);
  EXPECT_TRUE(x_.client(victim.client)->has_events());
}

TEST_F(GrabTest, GrabCannotAnswerPrompts) {
  // Even with a pointer grab, prompt-strip clicks are consumed by the
  // prompt dispatcher before grab routing.
  core::OverhaulConfig cfg;
  cfg.prompt_mode = true;
  core::OverhaulSystem sys(cfg);
  auto grabber = sys.launch_gui_app("/home/user/.mal", "mal",
                                    Rect{0, 100, 50, 50})
                     .value();
  ASSERT_TRUE(
      sys.xserver().grab_pointer(grabber.client, grabber.window).is_ok());
  sys.xserver().prompts().set_user_agent([&](const Prompt& p) {
    // The user clicks Deny; the grab must not swallow it.
    sys.input().click(p.deny_button.x + 1, p.deny_button.y + 1);
  });
  auto daemon = sys.launch_daemon("/usr/bin/d", "d").value();
  auto fd = sys.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                  kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  EXPECT_EQ(sys.xserver().prompts().stats().denied, 1u);
}

}  // namespace
}  // namespace overhaul::x11

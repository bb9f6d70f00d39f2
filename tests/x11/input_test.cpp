// Trusted input path tests (§IV-A): hardware vs SendEvent vs XTEST, and the
// clickjacking visibility threshold.
#include "core/display_backend.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
class InputTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      Rect r = {0, 0, 200, 200},
                                      bool settle = true) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r, settle).value();
  }

  sim::Timestamp interaction_ts(kern::Pid pid) {
    return sys_.kernel().processes().lookup(pid)->interaction_ts;
  }
};

TEST_F(InputTest, HardwareClickCreatesInteractionRecord) {
  auto a = app("victim");
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
  sys_.input().click(100, 100);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
  EXPECT_EQ(x_.input_stats().interaction_notifications, 1u);
}

TEST_F(InputTest, HardwareKeyGoesToFocusWindow) {
  auto a = app("editor");
  sys_.input().click(100, 100);  // sets focus
  const auto before = x_.input_stats().interaction_notifications;
  sys_.advance(sim::Duration::seconds(1));
  sys_.input().key(42);
  EXPECT_EQ(x_.input_stats().interaction_notifications, before + 1);
  EXPECT_EQ(interaction_ts(a.pid), sys_.clock().now());
}

TEST_F(InputTest, EventDeliveredToClientQueue) {
  auto a = app("victim");
  sys_.input().click(100, 100);
  XClient* c = x_.client(a.client);
  ASSERT_TRUE(c->has_events());
  const XEvent ev = c->next_event();
  EXPECT_EQ(ev.type, EventType::kButtonPress);
  EXPECT_EQ(ev.provenance, Provenance::kHardware);
  EXPECT_FALSE(ev.synthetic_flag);
}

// S2: SendEvent-injected input must not create interaction records.
TEST_F(InputTest, SendEventDoesNotCreateInteraction) {
  auto victim = app("victim");
  (void)victim;
  auto attacker = app("attacker", Rect{300, 300, 50, 50});
  XEvent fake;
  fake.type = EventType::kButtonPress;
  ASSERT_TRUE(x_.send_event(attacker.client, victim.window, fake).is_ok());
  EXPECT_TRUE(interaction_ts(victim.pid).is_never());
  // The event IS delivered — with the synthetic flag set.
  XClient* c = x_.client(victim.client);
  ASSERT_TRUE(c->has_events());
  const XEvent ev = c->next_event();
  EXPECT_TRUE(ev.synthetic_flag);
  EXPECT_EQ(ev.provenance, Provenance::kSendEvent);
}

// S2: XTEST fake input carries no wire flag but is provenance-tagged.
TEST_F(InputTest, XTestDoesNotCreateInteraction) {
  auto victim = app("victim");
  (void)victim;
  auto attacker = app("attacker", Rect{300, 300, 50, 50});
  ASSERT_TRUE(x_.xtest_fake_button(attacker.client, 100, 100).is_ok());
  EXPECT_TRUE(interaction_ts(victim.pid).is_never());
  XClient* c = x_.client(victim.client);
  ASSERT_TRUE(c->has_events());
  EXPECT_EQ(c->next_event().provenance, Provenance::kXTest);
  EXPECT_EQ(x_.stats().synthetic_events, 1u);

  // And a fake key into the focused window likewise.
  ASSERT_TRUE(x_.xtest_fake_key(attacker.client, 13).is_ok());
  EXPECT_TRUE(interaction_ts(victim.pid).is_never());
}

// S3 / clickjacking: a freshly-mapped window cannot harvest interactions.
TEST_F(InputTest, FreshlyMappedWindowSuppressed) {
  auto trap = app("trap", Rect{0, 0, 200, 200}, /*settle=*/false);
  sys_.input().click(100, 100);  // window mapped < threshold ago
  EXPECT_TRUE(interaction_ts(trap.pid).is_never());
  EXPECT_EQ(x_.input_stats().clickjack_suppressed, 1u);

  sys_.advance(sys_.config().visibility_threshold + sim::Duration::millis(1));
  sys_.input().click(100, 100);
  EXPECT_FALSE(interaction_ts(trap.pid).is_never());
}

// S3: a transparent overlay never satisfies the visibility requirement.
TEST_F(InputTest, TransparentOverlayNeverEligible) {
  auto victim = app("victim");
  (void)victim;
  auto attacker = app("attacker", Rect{0, 0, 200, 200});
  ASSERT_TRUE(
      x_.set_input_only(attacker.client, attacker.window, true).is_ok());
  sys_.advance(sim::Duration::seconds(60));  // mapped for a long time
  sys_.input().click(100, 100);  // lands on the transparent overlay (topmost)
  EXPECT_TRUE(interaction_ts(attacker.pid).is_never());
  EXPECT_GE(x_.input_stats().clickjack_suppressed, 1u);
}

// Pop-over attack: attacker maps a window over the victim right before the
// click; the visibility clock restarted at map, so no interaction record.
TEST_F(InputTest, PopOverWindowSuppressed) {
  auto victim = app("victim");
  (void)victim;
  auto attacker = app("attacker", Rect{0, 0, 200, 200});
  // Attacker hides, waits, then pops over just before the user's click.
  ASSERT_TRUE(x_.hide_surface(attacker.client, attacker.window).is_ok());
  sys_.advance(sim::Duration::seconds(30));
  ASSERT_TRUE(x_.show_surface(attacker.client, attacker.window).is_ok());
  sys_.input().click(100, 100);  // intended for victim, lands on attacker
  EXPECT_TRUE(interaction_ts(attacker.pid).is_never());
  EXPECT_TRUE(interaction_ts(victim.pid).is_never());  // victim got no event
}

TEST_F(InputTest, RaiseDoesNotRestartVisibilityClock) {
  auto a = app("a", Rect{0, 0, 200, 200});
  auto b = app("b", Rect{0, 0, 200, 200});
  (void)b;
  // a is below b; raising a long-visible window is immediately eligible.
  ASSERT_TRUE(x_.raise_surface(a.client, a.window).is_ok());
  sys_.input().click(100, 100);
  EXPECT_FALSE(interaction_ts(a.pid).is_never());
}

TEST_F(InputTest, ClickOnBareRootIsNoop) {
  const auto stats_before = x_.input_stats().hardware_events;
  sys_.input().click(1000, 700);  // nothing mapped there
  EXPECT_EQ(x_.input_stats().hardware_events, stats_before);
}

TEST_F(InputTest, BaselineServerSendsNoNotifications) {
  core::OverhaulSystem baseline(core::OverhaulConfig::baseline());
  auto a = baseline.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  ASSERT_TRUE(a.is_ok());
  baseline.input().click(50, 50);
  EXPECT_EQ(baseline.xserver().input_stats().interaction_notifications, 0u);
  // Unmodified kernel records nothing.
  EXPECT_TRUE(baseline.kernel()
                  .processes()
                  .lookup(a.value().pid)
                  ->interaction_ts.is_never());
}

}  // namespace
}  // namespace overhaul::x11

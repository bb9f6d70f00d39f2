// Systematic coverage of the paper's security goals S1–S4 (§II) as an
// attack matrix: every row is an attacker technique, every assertion the
// property that defeats it.
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/runtime.h"
#include "apps/spyware.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;
using util::Decision;
using util::Op;

class ThreatMatrix : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;

  core::OverhaulSystem::AppHandle gui(const std::string& name,
                                      display::Rect r = {0, 0, 150, 150}) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r).value();
  }
};

// --- S1: access only after explicit physical interaction -----------------------

TEST_F(ThreatMatrix, S1_NoInteractionNoAccessAnyResource) {
  auto daemon = sys_.launch_daemon("/home/user/.d", "d").value();
  EXPECT_EQ(sys_.kernel()
                .sys_open(daemon, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
  EXPECT_EQ(sys_.kernel()
                .sys_open(daemon, core::OverhaulSystem::camera_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

TEST_F(ThreatMatrix, S1_InteractionMustBeWithTheRequestingApp) {
  auto victim = gui("victim");
  auto bystander = gui("bystander", {400, 400, 150, 150});
  const auto& r = sys_.xserver().surface(bystander.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);  // user touches the bystander only
  EXPECT_EQ(sys_.kernel()
                .sys_open(victim.pid, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

TEST_F(ThreatMatrix, S1_AccessMustBeTemporallyProximate) {
  auto app = gui("app");
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);
  sys_.advance(sys_.config().delta + sim::Duration::nanos(1));
  EXPECT_EQ(sys_.kernel()
                .sys_open(app.pid, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

// --- S2: no forged or synthetic input escalates privileges ---------------------

TEST_F(ThreatMatrix, S2_SendEventInjectionCannotEscalate) {
  auto victim = gui("victim");
  (void)victim;
  auto attacker = gui("attacker", {400, 400, 50, 50});
  x11::XEvent fake;
  fake.type = x11::EventType::kButtonPress;
  ASSERT_TRUE(
      sys_.xserver().send_event(attacker.client, victim.window, fake).is_ok());
  x11::XEvent fake_key;
  fake_key.type = x11::EventType::kKeyPress;
  ASSERT_TRUE(sys_.xserver()
                  .send_event(attacker.client, victim.window, fake_key)
                  .is_ok());
  EXPECT_EQ(sys_.kernel()
                .sys_open(victim.pid, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

TEST_F(ThreatMatrix, S2_XTestFloodCannotEscalate) {
  auto victim = gui("victim");
  (void)victim;
  auto attacker = gui("attacker", {400, 400, 50, 50});
  for (int i = 0; i < 100; ++i) {
    (void)sys_.xserver().xtest_fake_button(attacker.client, 10, 10);
    (void)sys_.xserver().xtest_fake_key(attacker.client, 42);
  }
  EXPECT_EQ(sys_.kernel()
                .sys_open(victim.pid, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
  EXPECT_EQ(sys_.xserver().input_stats().interaction_notifications, 0u);
}

TEST_F(ThreatMatrix, S2_FakeNetlinkPeerCannotInjectNotifications) {
  // Malware impersonating the display manager over netlink.
  auto mal = sys_.launch_daemon("/home/user/.fake-xorg", "Xorg").value();
  EXPECT_EQ(sys_.kernel().netlink().connect(mal).code(),
            Code::kNotAuthenticated);
}

TEST_F(ThreatMatrix, S2_StaleNotificationReplayHarmless) {
  // Even the REAL display manager replaying an old timestamp cannot move a
  // process's record backward or forward beyond what the user actually did.
  auto app = gui("app");
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);
  const auto real_ts =
      sys_.kernel().processes().lookup(app.pid)->interaction_ts;
  // Replay an ancient notification.
  sys_.kernel().monitor().record_interaction(app.pid, sim::Timestamp{0});
  EXPECT_EQ(sys_.kernel().processes().lookup(app.pid)->interaction_ts,
            real_ts);
}

// --- S3: legitimate interactions cannot be hijacked ------------------------------

TEST_F(ThreatMatrix, S3_TransparentOverlayGainsNothing) {
  auto victim = gui("victim");
  (void)victim;
  auto attacker = gui("attacker", {0, 0, 150, 150});
  ASSERT_TRUE(sys_.xserver()
                  .set_input_only(attacker.client, attacker.window, true)
                  .is_ok());
  sys_.advance(sim::Duration::minutes(5));
  sys_.input().click(10, 10);  // lands on the invisible overlay
  EXPECT_EQ(sys_.kernel()
                .sys_open(attacker.pid, core::OverhaulSystem::mic_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

TEST_F(ThreatMatrix, S3_FlashMappedWindowGainsNothing) {
  auto victim = gui("victim");
  (void)victim;
  auto attacker = gui("attacker", {0, 0, 150, 150});
  ASSERT_TRUE(
      sys_.xserver().hide_surface(attacker.client, attacker.window).is_ok());
  sys_.advance(sim::Duration::minutes(5));
  // Pop over right before the user's click lands.
  ASSERT_TRUE(
      sys_.xserver().show_surface(attacker.client, attacker.window).is_ok());
  sys_.input().click(10, 10);
  EXPECT_TRUE(sys_.kernel()
                  .processes()
                  .lookup(attacker.pid)
                  ->interaction_ts.is_never());
}

TEST_F(ThreatMatrix, S3_BackgroundProcessCannotRideForeignInteractions) {
  auto editor = gui("editor");
  auto spy = apps::Spyware::install(sys_).value();
  const auto& r = sys_.xserver().surface(editor.window)->rect();
  for (int i = 0; i < 20; ++i) {
    sys_.input().click(r.x + 3, r.y + 3);
    EXPECT_TRUE(spy->try_record_microphone().is_policy_denial());
    sys_.advance(sim::Duration::millis(100));
  }
}

TEST_F(ThreatMatrix, S3_PtraceCannotLaunderPermissions) {
  auto mal = sys_.launch_daemon("/home/user/.mal", "mal").value();
  auto victim = sys_.kernel().sys_spawn(mal, "/usr/bin/cheese", "cheese").value();
  ASSERT_TRUE(sys_.kernel().sys_ptrace_attach(mal, victim).is_ok());
  sys_.kernel().monitor().record_interaction(victim, sys_.clock().now());
  EXPECT_EQ(sys_.kernel()
                .sys_open(victim, core::OverhaulSystem::camera_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

TEST_F(ThreatMatrix, S3_ExecCannotLaunderIdentity) {
  // Malware exec()ing into a trusted-looking binary keeps its (empty)
  // interaction record — the record lives in the task, not the image.
  auto mal = sys_.launch_daemon("/home/user/.mal", "mal").value();
  ASSERT_TRUE(
      sys_.kernel().sys_execve(mal, "/usr/bin/skype", "skype").is_ok());
  EXPECT_EQ(sys_.kernel()
                .sys_open(mal, core::OverhaulSystem::camera_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
}

// --- S4: unforgeable, unobscurable notification -----------------------------------

TEST_F(ThreatMatrix, S4_EveryBlockedSensitiveAccessAlerts) {
  auto spy = apps::Spyware::install(sys_).value();
  (void)spy->try_record_microphone();
  (void)spy->try_screenshot();
  ASSERT_EQ(sys_.xserver().alert_overlay().shown_count(), 2u);
  for (const auto& alert : sys_.xserver().alert_overlay().history()) {
    EXPECT_TRUE(sys_.xserver().alert_overlay().is_authentic(alert));
    EXPECT_EQ(alert.comm, "spyd");
  }
}

TEST_F(ThreatMatrix, S4_ClientWindowsCannotCarrySecret) {
  // A full-screen fake "alert" window is just a window: it has no secret,
  // and the genuine overlay remains active above it.
  auto spy = apps::Spyware::install(sys_).value();
  (void)spy->try_record_microphone();
  auto attacker = gui("fakealert", {0, 0, 1024, 768});
  (void)attacker;
  EXPECT_EQ(sys_.xserver().alert_overlay().active(sys_.clock().now()).size(), 1u);
  display::Alert forged;
  forged.text = "spyd is recording from the microphone";
  EXPECT_FALSE(sys_.xserver().alert_overlay().is_authentic(forged));
}

TEST_F(ThreatMatrix, S4_AlertsNameTheActualAccessor) {
  // Through the launcher chain, the alert names the process that touched
  // the resource (Shot), not the one the user touched (Run) — why V_{A,op}
  // comes from the kernel (§III-C step 6).
  auto run = gui("run");
  const auto& r = sys_.xserver().surface(run.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);
  auto shot = sys_.kernel().sys_spawn(run.pid, "/usr/bin/shot", "shot").value();
  auto fd = sys_.kernel().sys_open(shot, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_EQ(sys_.xserver().alert_overlay().shown_count(), 1u);
  EXPECT_EQ(sys_.xserver().alert_overlay().history()[0].comm, "shot");
}

// --- cross-cutting: the audit log is tamper-free from userspace ------------------

TEST_F(ThreatMatrix, InteractionStateInvisibleToUserspace) {
  // Userspace can read its own interaction age via /proc but cannot write
  // it: there is no syscall surface that sets interaction_ts directly.
  auto mal = sys_.launch_daemon("/home/user/.mal", "mal").value();
  EXPECT_EQ(sys_.kernel()
                .sys_proc_write(mal, "/proc/sys/overhaul/threshold_ms",
                                "999999")
                .code(),
            Code::kPermissionDenied);
}

}  // namespace
}  // namespace overhaul

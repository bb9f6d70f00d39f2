// §V-D style spyware scenarios: all attempts blocked under Overhaul, all
// succeed at baseline.
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;

TEST(SpywareTest, AllVectorsBlockedUnderOverhaul) {
  core::OverhaulSystem sys;
  auto pm = apps::PasswordManagerApp::launch(sys).value();
  pm->store_password("mail", "p@ss");
  // Benign copy so there is something on the clipboard.
  auto [cx, cy] = pm->click_point();
  sys.input().click(cx, cy);
  ASSERT_TRUE(pm->copy_password_to_clipboard("mail").is_ok());
  sys.advance(sim::Duration::seconds(10));

  auto spy = apps::Spyware::install(sys).value();
  EXPECT_TRUE(spy->try_sniff_clipboard(*pm, pm->pending_clipboard())
                  .is_policy_denial());
  EXPECT_TRUE(spy->try_screenshot().is_policy_denial());
  EXPECT_TRUE(spy->try_record_microphone().is_policy_denial());
  EXPECT_TRUE(spy->loot().empty());
  EXPECT_EQ(spy->attempts().total(), 3);
}

TEST(SpywareTest, AllVectorsSucceedAtBaseline) {
  core::OverhaulSystem sys(core::OverhaulConfig::baseline());
  auto pm = apps::PasswordManagerApp::launch(sys).value();
  pm->store_password("mail", "p@ss");
  ASSERT_TRUE(pm->copy_password_to_clipboard("mail").is_ok());
  sys.advance(sim::Duration::seconds(10));

  auto spy = apps::Spyware::install(sys).value();
  EXPECT_TRUE(spy->try_sniff_clipboard(*pm, pm->pending_clipboard()).is_ok());
  EXPECT_TRUE(spy->try_screenshot().is_ok());
  EXPECT_TRUE(spy->try_record_microphone().is_ok());
  EXPECT_EQ(spy->loot().total(), 3);
  EXPECT_EQ(spy->loot().clipboard[0], "p@ss");
}

TEST(SpywareTest, BlockedAttemptsRaiseAlertsForDeviceAndScreen) {
  core::OverhaulSystem sys;
  auto pm = apps::PasswordManagerApp::launch(sys).value();
  pm->store_password("a", "x");
  // The user copies something so the CLIPBOARD selection has an owner —
  // otherwise the sniff fails at BadAtom before any policy decision.
  auto [cx, cy] = pm->click_point();
  sys.input().click(cx, cy);
  ASSERT_TRUE(pm->copy_password_to_clipboard("a").is_ok());
  auto spy = apps::Spyware::install(sys).value();
  sys.advance(sim::Duration::seconds(5));
  (void)spy->try_screenshot();
  (void)spy->try_record_microphone();
  (void)spy->try_sniff_clipboard(*pm, "x");
  // scr + mic alert; clipboard denial is logged, not alerted (§V-C).
  EXPECT_EQ(sys.xserver().alert_overlay().shown_count(), 2u);
  EXPECT_GE(sys.audit().count(util::Decision::kDeny), 3u);
}

TEST(SpywareTest, SpywareCannotRideUserInteractionWithOtherApps) {
  // S3: the user is actively clicking around in *other* apps while the
  // spyware attempts its accesses — still denied.
  core::OverhaulSystem sys;
  auto editor = apps::EditorApp::launch(sys).value();
  auto spy = apps::Spyware::install(sys).value();
  for (int i = 0; i < 5; ++i) {
    auto [cx, cy] = editor->click_point();
    sys.input().click(cx, cy);
    EXPECT_TRUE(spy->try_screenshot().is_policy_denial());
    EXPECT_TRUE(spy->try_record_microphone().is_policy_denial());
    sys.advance(sim::Duration::millis(300));
  }
  EXPECT_TRUE(spy->loot().empty());
}

TEST(SpywareTest, SpywareForkingItselfGainsNothing) {
  // P1 propagates 'never' just as faithfully as real timestamps.
  core::OverhaulSystem sys;
  auto spy = apps::Spyware::install(sys).value();
  auto& k = sys.kernel();
  auto child = k.sys_fork(spy->pid()).value();
  auto fd = k.sys_open(child, core::OverhaulSystem::mic_path(),
                       kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST(SpywareTest, SpywareCannotInjectIntoPrivilegedApp) {
  // The §IV-B ptrace attack: spyware launches a legitimate recorder, then
  // attaches to it to piggy-back on its (future) grants. The hardening
  // revokes the tracee's permissions entirely.
  core::OverhaulSystem sys;
  auto spy = apps::Spyware::install(sys).value();
  auto& k = sys.kernel();
  auto victim = k.sys_spawn(spy->pid(), "/usr/bin/arecord", "arecord").value();
  ASSERT_TRUE(k.sys_ptrace_attach(spy->pid(), victim).is_ok());

  // Even if the victim somehow had a fresh interaction, it is traced.
  k.monitor().record_interaction(victim, sys.clock().now());
  auto fd = k.sys_open(victim, core::OverhaulSystem::mic_path(),
                       kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST(SpywareTest, SyntheticInputCannotUnlockDevices) {
  // S2 at system level: spyware drives XTEST clicks onto its own hidden
  // window and onto other apps — never creates interaction records.
  core::OverhaulSystem sys;
  auto editor = apps::EditorApp::launch(sys).value();
  auto spy = apps::Spyware::install(sys).value();
  auto [cx, cy] = editor->click_point();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys.xserver().xtest_fake_button(spy->client(), cx, cy).is_ok());
  }
  EXPECT_TRUE(spy->try_record_microphone().is_policy_denial());
  // And the editor gained nothing either.
  EXPECT_TRUE(sys.kernel()
                  .processes()
                  .lookup(editor->pid())
                  ->interaction_ts.is_never());
}

}  // namespace
}  // namespace overhaul

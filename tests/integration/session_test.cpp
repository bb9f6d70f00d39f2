// Desktop-session lifecycle tests: autostart probes, the §V-C Skype
// spurious alert at login, and session teardown.
#include <gtest/gtest.h>

#include "apps/session.h"
#include "core/system.h"

namespace overhaul {
namespace {

using apps::DesktopSession;
using util::Code;

class SessionTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  DesktopSession session_{sys_};
};

TEST_F(SessionTest, LoginLaunchesAutostartApps) {
  session_.add_autostart({"/usr/bin/nm-applet", "nm-applet", false});
  session_.add_autostart({"/usr/bin/skype", "skype", true});
  ASSERT_TRUE(session_.login().is_ok());
  EXPECT_TRUE(session_.logged_in());
  EXPECT_EQ(session_.apps().size(), 2u);
  EXPECT_NE(session_.find("skype").pid, kern::kNoPid);
  EXPECT_EQ(session_.find("missing").pid, kern::kNoPid);
}

TEST_F(SessionTest, SkypeAutostartProducesExactlyOneSpuriousAlert) {
  session_.add_autostart({"/usr/bin/nm-applet", "nm-applet", false});
  session_.add_autostart({"/usr/bin/skype", "skype", true});
  session_.add_autostart({"/usr/bin/dropbox", "dropbox", false});
  ASSERT_TRUE(session_.login().is_ok());

  ASSERT_EQ(sys_.xserver().alert_overlay().shown_count(), 1u);
  const auto& alert = sys_.xserver().alert_overlay().history()[0];
  EXPECT_EQ(alert.comm, "skype");
  EXPECT_EQ(alert.op, util::Op::kCamera);
  EXPECT_EQ(alert.decision, util::Decision::kDeny);
}

TEST_F(SessionTest, SubsequentVideoCallsStillWork) {
  // The paper: "This did not cause subsequent video calls to fail".
  session_.add_autostart({"/usr/bin/skype", "skype", true});
  ASSERT_TRUE(session_.login().is_ok());
  auto skype = session_.find("skype");

  sys_.advance(sys_.config().visibility_threshold + sim::Duration::seconds(1));
  const auto& r = sys_.xserver().surface(skype.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);
  auto fd = sys_.kernel().sys_open(skype.pid,
                                   core::OverhaulSystem::camera_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());
}

TEST_F(SessionTest, FreshlyAutostartedWindowsNotClickEligible) {
  // Right after login, autostart windows have not met the visibility
  // threshold: a click harvested in that instant yields nothing.
  session_.add_autostart({"/usr/bin/app", "app", false});
  ASSERT_TRUE(session_.login().is_ok());
  auto app = session_.find("app");
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 5, r.y + 5);
  EXPECT_TRUE(
      sys_.kernel().processes().lookup(app.pid)->interaction_ts.is_never());
}

TEST_F(SessionTest, LogoutTerminatesSessionApps) {
  session_.add_autostart({"/usr/bin/a", "a", false});
  session_.add_autostart({"/usr/bin/b", "b", false});
  ASSERT_TRUE(session_.login().is_ok());
  const auto a = session_.find("a");
  ASSERT_TRUE(session_.logout().is_ok());
  EXPECT_EQ(sys_.kernel().processes().lookup_live(a.pid), nullptr);
  EXPECT_EQ(sys_.xserver().client(a.client), nullptr);
  EXPECT_FALSE(session_.logged_in());
}

TEST_F(SessionTest, DoubleLoginAndLogoutRejected) {
  ASSERT_TRUE(session_.login().is_ok());
  EXPECT_EQ(session_.login().code(), Code::kExists);
  ASSERT_TRUE(session_.logout().is_ok());
  EXPECT_EQ(session_.logout().code(), Code::kNotFound);
}

TEST_F(SessionTest, RelogAfterLogoutWorks) {
  session_.add_autostart({"/usr/bin/a", "a", false});
  ASSERT_TRUE(session_.login().is_ok());
  ASSERT_TRUE(session_.logout().is_ok());
  ASSERT_TRUE(session_.login().is_ok());
  EXPECT_EQ(session_.apps().size(), 1u);
  EXPECT_NE(sys_.kernel().processes().lookup_live(session_.find("a").pid),
            nullptr);
}

TEST_F(SessionTest, BaselineLoginProbeSucceedsSilently) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  DesktopSession session(base);
  session.add_autostart({"/usr/bin/skype", "skype", true});
  ASSERT_TRUE(session.login().is_ok());
  EXPECT_EQ(base.xserver().alert_overlay().shown_count(), 0u);
  EXPECT_EQ(base.audit().size(), 0u);  // unmodified system: nothing logged
}

}  // namespace
}  // namespace overhaul

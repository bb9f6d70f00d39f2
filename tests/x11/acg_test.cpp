// ACG comparison-mode tests: the white-box model of Roesner et al. [27]
// running on Overhaul's trusted input path.
#include "x11/acg.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using util::Code;
using util::Decision;
using util::Op;

core::OverhaulConfig acg_config() {
  core::OverhaulConfig cfg;
  cfg.grant_policy = kern::GrantPolicy::kAcg;
  return cfg;
}

class AcgTest : public ::testing::Test {
 protected:
  AcgTest() : sys_(acg_config()) {
    app_ = sys_.launch_gui_app("/usr/bin/cam-app", "cam-app",
                               Rect{100, 100, 300, 200})
               .value();
    // The app registers a camera gadget (top-left button) and a mic gadget.
    EXPECT_TRUE(sys_.xserver()
                    .acg()
                    .register_gadget(app_.client, app_.window,
                                     Rect{10, 10, 60, 30}, Op::kCamera)
                    .is_ok());
    EXPECT_TRUE(sys_.xserver()
                    .acg()
                    .register_gadget(app_.client, app_.window,
                                     Rect{80, 10, 60, 30}, Op::kMicrophone)
                    .is_ok());
  }

  util::Status open_device(const std::string& path) {
    auto fd = sys_.kernel().sys_open(app_.pid, path, kern::OpenFlags::kRead);
    if (!fd.is_ok()) return fd.status();
    (void)sys_.kernel().sys_close(app_.pid, fd.value());
    return util::Status::ok();
  }

  core::OverhaulSystem sys_;
  core::OverhaulSystem::AppHandle app_;
};

TEST_F(AcgTest, GadgetClickGrantsExactlyThatOp) {
  // Click the camera gadget (window at 100,100; gadget at +10,+10).
  sys_.input().click(100 + 15, 100 + 15);
  EXPECT_TRUE(open_device(core::OverhaulSystem::camera_path()).is_ok());
  // The same click does NOT unlock the microphone (precision!).
  EXPECT_EQ(open_device(core::OverhaulSystem::mic_path()).code(),
            Code::kOverhaulDenied);
}

TEST_F(AcgTest, NonGadgetClickGrantsNothing) {
  sys_.input().click(100 + 200, 100 + 150);  // app body, no gadget
  EXPECT_EQ(open_device(core::OverhaulSystem::camera_path()).code(),
            Code::kOverhaulDenied);
  EXPECT_EQ(open_device(core::OverhaulSystem::mic_path()).code(),
            Code::kOverhaulDenied);
}

TEST_F(AcgTest, SameClickUnderInputDrivenPolicyGrantsEverything) {
  // The head-to-head: identical click stream, input-driven policy.
  core::OverhaulSystem plain;
  auto app = plain.launch_gui_app("/usr/bin/cam-app", "cam-app",
                                  Rect{100, 100, 300, 200})
                 .value();
  plain.input().click(100 + 200, 100 + 150);  // body click, no gadget
  auto fd = plain.kernel().sys_open(app.pid,
                                    core::OverhaulSystem::camera_path(),
                                    kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());  // the over-grant the paper concedes in §III-E
}

TEST_F(AcgTest, GadgetGrantExpiresWithDelta) {
  sys_.input().click(100 + 15, 100 + 15);
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  EXPECT_EQ(open_device(core::OverhaulSystem::camera_path()).code(),
            Code::kOverhaulDenied);
}

TEST_F(AcgTest, SyntheticGadgetClickGrantsNothing) {
  auto mal = sys_.launch_gui_app("/home/user/.mal", "mal",
                                 Rect{600, 600, 50, 50})
                 .value();
  ASSERT_TRUE(
      sys_.xserver().xtest_fake_button(mal.client, 100 + 15, 100 + 15).is_ok());
  EXPECT_EQ(open_device(core::OverhaulSystem::camera_path()).code(),
            Code::kOverhaulDenied);
}

TEST_F(AcgTest, UnmodifiedAppCanNeverBeGranted) {
  // The deployment gap: an app with no registered gadgets gets nothing in
  // ACG mode, no matter how the user interacts with it.
  auto plain_app =
      sys_.launch_gui_app("/usr/bin/legacy", "legacy", Rect{500, 100, 200, 200})
          .value();
  const auto& r = sys_.xserver().surface(plain_app.window)->rect();
  for (int i = 0; i < 5; ++i) sys_.input().click(r.x + 50, r.y + 50);
  auto fd = sys_.kernel().sys_open(plain_app.pid,
                                   core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST_F(AcgTest, GadgetRegistrationValidation) {
  auto& acg = sys_.xserver().acg();
  // Foreign window.
  auto other = sys_.launch_gui_app("/usr/bin/other", "other",
                                   Rect{500, 400, 100, 100})
                   .value();
  EXPECT_EQ(acg.register_gadget(app_.client, other.window,
                                Rect{0, 0, 10, 10}, Op::kCamera)
                .code(),
            Code::kBadAccess);
  // Out-of-bounds rect.
  EXPECT_EQ(acg.register_gadget(app_.client, app_.window,
                                Rect{290, 190, 60, 30}, Op::kCamera)
                .code(),
            Code::kInvalidArgument);
  // Bad window id.
  EXPECT_EQ(acg.register_gadget(app_.client, 9999, Rect{0, 0, 5, 5},
                                Op::kCamera)
                .code(),
            Code::kBadWindow);
}

TEST_F(AcgTest, ForkInheritsAcgGrants) {
  sys_.input().click(100 + 15, 100 + 15);  // camera gadget
  auto child = sys_.kernel().sys_fork(app_.pid).value();
  auto fd = sys_.kernel().sys_open(child, core::OverhaulSystem::camera_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());  // task_struct copy carries the per-op grant
}

TEST_F(AcgTest, UnregisterWindowDropsGadgets) {
  sys_.xserver().acg().unregister_window(app_.window);
  EXPECT_EQ(sys_.xserver().acg().gadget_count(), 0u);
  sys_.input().click(100 + 15, 100 + 15);
  EXPECT_EQ(open_device(core::OverhaulSystem::camera_path()).code(),
            Code::kOverhaulDenied);
}

}  // namespace
}  // namespace overhaul::x11

#include "core/timeline.h"

#include <gtest/gtest.h>

#include "apps/spyware.h"

namespace overhaul::core {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  OverhaulSystem sys_;
};

TEST_F(TimelineTest, CapturesInputDecisionAlertSequence) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  auto fd = sys_.kernel().sys_open(app.pid, OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());

  const auto entries = build_timeline(sys_);
  ASSERT_GE(entries.size(), 3u);
  // Ordered: input → decision → alert (same instant, stable order preserved
  // by append order within the audit/alert sources).
  std::vector<TimelineKind> kinds;
  for (const auto& e : entries) kinds.push_back(e.kind);
  const auto input_at =
      std::find(kinds.begin(), kinds.end(), TimelineKind::kHardwareInput);
  const auto decision_at =
      std::find(kinds.begin(), kinds.end(), TimelineKind::kDecision);
  const auto alert_at =
      std::find(kinds.begin(), kinds.end(), TimelineKind::kAlert);
  ASSERT_NE(input_at, kinds.end());
  ASSERT_NE(decision_at, kinds.end());
  ASSERT_NE(alert_at, kinds.end());
  EXPECT_LT(input_at, decision_at);
}

TEST_F(TimelineTest, MarksNotificationProducingInputs) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  const auto text = render_timeline(build_timeline(sys_));
  EXPECT_NE(text.find("[N sent]"), std::string::npos);
  EXPECT_NE(text.find("click -> window"), std::string::npos);
}

TEST_F(TimelineTest, DistinguishesSyntheticAndSuppressed) {
  auto victim = sys_.launch_gui_app("/usr/bin/victim", "victim").value();
  auto fresh = sys_.launch_gui_app("/home/user/.trap", "trap",
                                   display::Rect{300, 300, 50, 50}, false)
                   .value();
  (void)victim;
  // Synthetic: XTEST click.
  (void)sys_.xserver().xtest_fake_button(fresh.client, 10, 10);
  // Suppressed: hardware click on the freshly mapped trap window.
  sys_.input().click(310, 310);

  const auto entries = build_timeline(sys_);
  bool saw_synthetic = false, saw_suppressed = false;
  for (const auto& e : entries) {
    saw_synthetic |= e.kind == TimelineKind::kSyntheticInput;
    saw_suppressed |= e.kind == TimelineKind::kSuppressedInput;
  }
  EXPECT_TRUE(saw_synthetic);
  EXPECT_TRUE(saw_suppressed);
}

TEST_F(TimelineTest, DeniedSpywareShowsDenyAndAlert) {
  auto spy = apps::Spyware::install(sys_).value();
  (void)spy->try_record_microphone();
  const std::string text = render_timeline(build_timeline(sys_));
  EXPECT_NE(text.find("mic DENY"), std::string::npos);
  EXPECT_NE(text.find("Blocked: spyd"), std::string::npos);
  EXPECT_NE(text.find("age never"), std::string::npos);
}

TEST_F(TimelineTest, SortedByTime) {
  auto app = sys_.launch_gui_app("/usr/bin/a", "a").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  for (int i = 0; i < 5; ++i) {
    sys_.input().click(r.x + 1, r.y + 1);
    sys_.advance(sim::Duration::seconds(3));
    (void)sys_.kernel().sys_open(app.pid, OverhaulSystem::mic_path(),
                                 kern::OpenFlags::kRead);
  }
  const auto entries = build_timeline(sys_);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1].time.ns, entries[i].time.ns);
  }
}

TEST_F(TimelineTest, EmptySystemEmptyTimeline) {
  OverhaulSystem fresh;
  EXPECT_TRUE(build_timeline(fresh).empty());
  EXPECT_TRUE(render_timeline({}).empty());
}

}  // namespace
}  // namespace overhaul::core

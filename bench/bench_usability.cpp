// §V-B usability study regeneration.
//
// The paper's study: 46 CS students, two tasks.
//  Task 1 — make a Skype call on an Overhaul machine; rate difficulty on a
//           5-point Likert scale (1 = identical to normal Skype).
//           Paper result: all 46 rated it identical (score 1).
//  Task 2 — perform a web search while a hidden background process triggers
//           a blocked camera access + alert; asked afterwards whether they
//           noticed anything unusual.
//           Paper result: 24 interrupted immediately / 16 noticed and
//           reported when prompted / 6 noticed nothing.
//
// Substitution: participants are modelled as attention profiles drawn from
// a seeded RNG; the attention model is calibrated so the *population* (not
// per-run counts) matches the paper's split (24/16/6 ≈ 52% / 35% / 13%).
// What the harness actually verifies mechanically: task 1 produces zero
// user-visible differences (no denials, no prompts), and task 2's alert is
// raised exactly when the hidden process is blocked.
#include <cstdio>

#include "apps/spyware.h"
#include "bench_report.h"
#include "apps/user_model.h"
#include "apps/video_conf.h"
#include "core/system.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

constexpr int kParticipants = 46;


}  // namespace

int main() {
  util::Rng rng(46);
  const apps::AttentionModel attention;  // calibrated to the 24/16/6 split

  int identical_ratings = 0;
  int task1_failures = 0;
  int immediate = 0, prompted = 0, missed = 0;
  int alerts_raised = 0;

  for (int p = 0; p < kParticipants; ++p) {
    // --- Task 1: Skype call under Overhaul ---------------------------------
    core::OverhaulSystem sys;
    auto skype = apps::VideoConfApp::launch(sys).value();
    auto [cx, cy] = skype->click_point();
    sys.input().click(cx, cy);
    sys.advance(sim::Duration::millis(
        static_cast<std::int64_t>(rng.uniform(30, 400))));  // human delay
    auto call = skype->start_call();
    const bool seamless = call.ok();
    if (seamless) {
      ++identical_ratings;  // nothing observable → Likert 1
    } else {
      ++task1_failures;  // would surface as a degraded rating
    }
    skype->end_call();

    // --- Task 2: hidden camera access while browsing -------------------------
    sys.advance(sim::Duration::minutes(1));
    auto spy = sys.launch_daemon("/home/user/.hidden", "hidden").value();
    // Participant browses (interacts with the browser window)...
    auto browser = sys.launch_gui_app("/usr/bin/firefox", "firefox").value();
    const auto& r = sys.xserver().surface(browser.window)->rect();
    sys.input().click(r.x + 5, r.y + 5);
    // ...and at a random moment the background process hits the camera.
    sys.advance(sim::Duration::seconds(rng.uniform(5, 90)));
    const std::size_t alerts_before = sys.xserver().alert_overlay().shown_count();
    auto fd = sys.kernel().sys_open(spy, core::OverhaulSystem::camera_path(),
                                    kern::OpenFlags::kRead);
    const bool blocked = !fd.is_ok();
    const bool alerted = sys.xserver().alert_overlay().shown_count() > alerts_before;
    if (blocked && alerted) ++alerts_raised;

    switch (attention.sample(rng)) {
      case apps::AlertReaction::kInterruptsImmediately: ++immediate; break;
      case apps::AlertReaction::kReportsWhenPrompted: ++prompted; break;
      case apps::AlertReaction::kMissesAlert: ++missed; break;
    }
  }

  std::printf("Usability study (46 participants, modelled attention)\n\n");
  std::printf("Task 1: Skype call on an OVERHAUL machine\n");
  std::printf("  %-44s %5s %9s\n", "", "paper", "this run");
  std::printf("  %-44s %5d %9d\n", "rated identical to unmodified Skype (=1)",
              46, identical_ratings);
  std::printf("  %-44s %5d %9d\n", "calls failed / visibly degraded", 0,
              task1_failures);

  std::printf("\nTask 2: hidden camera access during web search\n");
  std::printf("  %-44s %5d %9d\n", "alert raised on blocked access", 46,
              alerts_raised);
  std::printf("  %-44s %5d %9d\n", "interrupted task immediately", 24,
              immediate);
  std::printf("  %-44s %5d %9d\n", "noticed, reported when prompted", 16,
              prompted);
  std::printf("  %-44s %5d %9d\n", "noticed nothing", 6, missed);

  bench::JsonReport report("usability");
  report.add("participants", kParticipants);
  report.add("identical_ratings", identical_ratings);
  report.add("task1_failures", task1_failures);
  report.add("alerts_raised", alerts_raised);
  report.add("interrupted_immediately", immediate);
  report.add("reported_when_prompted", prompted);
  report.add("noticed_nothing", missed);
  (void)report.write("BENCH_usability.json");

  const bool ok = task1_failures == 0 && identical_ratings == kParticipants &&
                  alerts_raised == kParticipants &&
                  immediate + prompted + missed == kParticipants;
  std::printf("\n%s\n", ok ? "Mechanical checks passed (transparency + alert "
                             "delivery); attention split is model-calibrated."
                           : "UNEXPECTED: mechanical checks failed!");
  return ok ? 0 : 1;
}

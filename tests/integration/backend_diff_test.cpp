// Cross-backend differential verification: the same seeded interaction
// script, replayed against the X11 server and the Wayland compositor, must
// produce bit-identical permission-monitor decision streams. The monitor
// never sees which display protocol is running — only interaction records
// and queries — so any divergence is a mediation bug in one backend.
//
// The comparison covers the full audit tuple except the free-form `detail`
// string (which legitimately names protocol objects: "root"/"window N" vs
// "output"/"surface N"), the monitor's decision counters, the alert overlay
// history length, and the display core's input trace (time, kind, receiver,
// whether it was synthetic, notified or suppressed — not the surface id,
// which each protocol numbers its own way) with its
// <backend>.input.{hardware_events,notifications,clickjack_suppressed}
// counters. Scripts that capture the screen paint each app's
// surface a distinct colour first, and every full-screen capture must be
// byte-identical across the backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/password_manager.h"
#include "apps/screenshot.h"
#include "apps/spyware.h"
#include "apps/video_conf.h"
#include "core/system.h"
#include "util/rng.h"

namespace overhaul {
namespace {

using core::DisplayBackendKind;
using core::OverhaulSystem;
using util::Code;

core::OverhaulConfig config_for(DisplayBackendKind backend) {
  core::OverhaulConfig cfg;
  cfg.display_backend = backend;
  return cfg;
}

// Everything the monitor decided, in order, minus backend-specific wording.
struct DecisionStream {
  std::vector<std::string> records;
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  std::uint64_t queries = 0;
  std::uint64_t notifications = 0;
  std::uint64_t alerts = 0;
  std::vector<std::string> inputs;
  std::uint64_t hardware_events = 0;
  std::uint64_t input_notifications = 0;
  std::uint64_t clickjack_suppressed = 0;

  bool operator==(const DecisionStream&) const = default;
};

DecisionStream snapshot(OverhaulSystem& sys) {
  DecisionStream s;
  for (const auto& r : sys.audit().records()) {
    s.records.push_back(
        std::to_string(r.time_ns) + "|" + std::to_string(r.pid) + "|" +
        r.comm + "|" + std::string(util::op_name(r.op)) + "|" +
        (r.decision == util::Decision::kGrant ? "grant" : "deny") + "|" +
        std::to_string(r.interaction_age_ns));
  }
  const auto& m = sys.obs().metrics;
  s.granted = m.counter_value("monitor.decisions.granted");
  s.denied = m.counter_value("monitor.decisions.denied");
  s.queries = m.counter_value("monitor.queries");
  s.notifications = m.counter_value("monitor.notifications");
  s.alerts = sys.display().alert_overlay().shown_count();
  for (const auto& t : sys.display().input_trace()) {
    s.inputs.push_back(
        std::to_string(t.time.ns) + "|" +
        (t.kind == core::DisplayBackend::InputKind::kKey ? "key" : "button") +
        "|" + std::to_string(t.receiver_pid) + "|" +
        (t.synthetic ? "synthetic" : "hardware") + "|" +
        (t.produced_notification ? "notified" : "-") + "|" +
        (t.clickjack_suppressed ? "suppressed" : "-"));
  }
  const std::string input =
      sys.display().backend_kind() == DisplayBackendKind::kX11 ? "x11.input."
                                                               : "wl.input.";
  s.hardware_events = m.counter_value(input + "hardware_events");
  s.input_notifications = m.counter_value(input + "notifications");
  s.clickjack_suppressed = m.counter_value(input + "clickjack_suppressed");
  return s;
}

// A user click into the app's surface, backend-neutral.
void click_into(OverhaulSystem& sys, const apps::GuiApp& app) {
  auto [cx, cy] = app.click_point();
  sys.input().click(cx, cy);
}

// The app's client drawing its whole surface one colour.
void paint(OverhaulSystem& sys, const apps::GuiApp& app, std::uint32_t argb) {
  sys.display().surface(app.window())->fill(argb);
}

// The pixels of every full-screen capture a script took, in order.
using Captures = std::vector<std::vector<std::uint32_t>>;

void record(Captures& shots, util::Result<display::Image> img) {
  if (img.is_ok()) shots.push_back(std::move(img).value().pixels);
}

// Run `script` on a freshly booted system of each backend and insist the
// monitor could not tell them apart and the user saw the same screen.
void expect_backends_agree(
    const std::function<void(OverhaulSystem&, Captures&)>& script) {
  OverhaulSystem on_x11(config_for(DisplayBackendKind::kX11));
  OverhaulSystem on_wl(config_for(DisplayBackendKind::kWayland));
  Captures x_shots;
  Captures w_shots;
  script(on_x11, x_shots);
  script(on_wl, w_shots);
  ASSERT_EQ(x_shots.size(), w_shots.size());
  for (std::size_t i = 0; i < x_shots.size(); ++i)
    EXPECT_TRUE(x_shots[i] == w_shots[i]) << "capture " << i << " diverged";
  const DecisionStream x = snapshot(on_x11);
  const DecisionStream w = snapshot(on_wl);
  ASSERT_EQ(x.records.size(), w.records.size());
  for (std::size_t i = 0; i < x.records.size(); ++i)
    EXPECT_EQ(x.records[i], w.records[i]) << "audit record " << i << " diverged";
  EXPECT_EQ(x.granted, w.granted);
  EXPECT_EQ(x.denied, w.denied);
  EXPECT_EQ(x.queries, w.queries);
  EXPECT_EQ(x.notifications, w.notifications);
  EXPECT_EQ(x.alerts, w.alerts);
  ASSERT_EQ(x.inputs.size(), w.inputs.size());
  for (std::size_t i = 0; i < x.inputs.size(); ++i)
    EXPECT_EQ(x.inputs[i], w.inputs[i]) << "input trace entry " << i;
  EXPECT_FALSE(x.inputs.empty()) << "the script delivered no input";
  EXPECT_EQ(x.hardware_events, w.hardware_events);
  EXPECT_EQ(x.input_notifications, w.input_notifications);
  EXPECT_EQ(x.clickjack_suppressed, w.clickjack_suppressed);
}

// --- the paper's flows -------------------------------------------------------

// Figure 1: click → mic/cam granted with alerts; stale click → denied.
TEST(BackendDiff, Fig1HardwareDeviceFlow) {
  expect_backends_agree([](OverhaulSystem& sys, Captures&) {
    auto skype = apps::VideoConfApp::launch(sys).value();
    click_into(sys, *skype);
    sys.advance(sim::Duration::millis(50));
    auto result = skype->start_call();
    EXPECT_TRUE(result.ok()) << result.mic.to_string();
    skype->end_call();
    sys.advance(sim::Duration::seconds(5));
    EXPECT_FALSE(skype->start_call().ok());
  });
}

// Figure 2: mediated clipboard — user-driven copy/paste granted, the
// background sniffer denied.
TEST(BackendDiff, Fig2ClipboardFlow) {
  expect_backends_agree([](OverhaulSystem& sys, Captures&) {
    auto pm = apps::PasswordManagerApp::launch(sys).value();
    auto editor = apps::EditorApp::launch(sys).value();
    auto spy = apps::Spyware::install(sys).value();
    pm->store_password("bank", "hunter2");

    click_into(sys, *pm);
    EXPECT_TRUE(pm->copy_password_to_clipboard("bank").is_ok());
    click_into(sys, *editor);
    auto pasted = editor->paste_from(*pm);
    EXPECT_TRUE(pasted.is_ok());
    EXPECT_EQ(pasted.value(), "hunter2");

    // The sniffer strikes after the user has moved on.
    sys.advance(sim::Duration::seconds(5));
    EXPECT_EQ(spy->try_sniff_clipboard(*pm, pm->pending_clipboard()).code(),
              Code::kBadAccess);
    EXPECT_TRUE(spy->loot().clipboard.empty());
  });
}

// Screen capture: a clicked screenshot tool succeeds, the spyware does not.
TEST(BackendDiff, ScreenCaptureFlow) {
  expect_backends_agree([](OverhaulSystem& sys, Captures& shots) {
    auto shot = apps::ScreenshotApp::launch(sys).value();
    auto spy = apps::Spyware::install(sys).value();
    constexpr std::uint32_t kShotColour = 0xFFF9A825u;
    paint(sys, *shot, kShotColour);
    paint(sys, *spy, 0xFFD50000u);  // never mapped: must not show
    click_into(sys, *shot);
    record(shots, shot->capture_now());
    ASSERT_EQ(shots.size(), 1u);
    const auto [cx, cy] = shot->click_point();
    EXPECT_EQ(shots[0][static_cast<std::size_t>(
                  cy * sys.config().screen_width + cx)],
              kShotColour);
    EXPECT_EQ(std::count(shots[0].begin(), shots[0].end(), 0xFFD50000u), 0);
    sys.advance(sim::Duration::seconds(5));
    EXPECT_FALSE(spy->try_screenshot().is_ok());
    EXPECT_FALSE(spy->try_record_microphone().is_ok());
  });
}

// --- seeded random sessions --------------------------------------------------

// A randomized but fully deterministic mix of benign use and spyware
// attempts. Both backends replay the identical action sequence.
void random_session(OverhaulSystem& sys, Captures& shots, std::uint64_t seed) {
  auto pm = apps::PasswordManagerApp::launch(sys).value();
  auto editor = apps::EditorApp::launch(sys).value();
  auto shot = apps::ScreenshotApp::launch(sys).value();
  auto spy = apps::Spyware::install(sys).value();
  pm->store_password("bank", "hunter2");
  paint(sys, *pm, 0xFF2E7D32u);
  paint(sys, *editor, 0xFF1565C0u);
  paint(sys, *shot, 0xFFF9A825u);
  paint(sys, *spy, 0xFFD50000u);

  util::Rng rng(seed);
  for (int step = 0; step < 60; ++step) {
    switch (rng.next_below(8)) {
      case 0: click_into(sys, *pm); break;
      case 1: click_into(sys, *editor); break;
      case 2: (void)pm->copy_password_to_clipboard("bank"); break;
      case 3: (void)editor->paste_from(*pm); break;
      case 4:
        (void)spy->try_sniff_clipboard(*pm, pm->pending_clipboard());
        break;
      case 5:
        click_into(sys, *shot);
        record(shots, shot->capture_now());
        break;
      case 6: (void)spy->try_screenshot(); break;
      case 7: (void)spy->try_record_microphone(); break;
    }
    sys.advance(sim::Duration::millis(
        static_cast<std::int64_t>(rng.next_below(3000)) + 10));
  }
  EXPECT_FALSE(shots.empty()) << "the session never captured the screen";
}

TEST(BackendDiff, SeededRandomSession7) {
  expect_backends_agree([](OverhaulSystem& sys, Captures& shots) {
    random_session(sys, shots, 7);
  });
}

TEST(BackendDiff, SeededRandomSession1234) {
  expect_backends_agree([](OverhaulSystem& sys, Captures& shots) {
    random_session(sys, shots, 1234);
  });
}

TEST(BackendDiff, SeededRandomSession987654321) {
  expect_backends_agree([](OverhaulSystem& sys, Captures& shots) {
    random_session(sys, shots, 987654321);
  });
}

// --- the attack surface each backend closes in its own idiom -----------------

// Input forgery mints zero interaction records on either backend: XTEST
// fake input on X11, a forged wl_seat serial on Wayland. The monitor ends
// up with the same (empty) interaction state on both.
TEST(BackendDiff, InputForgeryMintsNoInteractionOnEitherBackend) {
  OverhaulSystem on_x11(config_for(DisplayBackendKind::kX11));
  auto x_victim = apps::PasswordManagerApp::launch(on_x11).value();
  auto x_spy = apps::Spyware::install(on_x11).value();
  ASSERT_TRUE(on_x11.xserver()
                  .xtest_fake_button(x_spy->client(), 790, 350)
                  .is_ok());
  EXPECT_TRUE(on_x11.kernel()
                  .processes()
                  .lookup(x_victim->pid())
                  ->interaction_ts.is_never());

  OverhaulSystem on_wl(config_for(DisplayBackendKind::kWayland));
  auto w_victim = apps::PasswordManagerApp::launch(on_wl).value();
  auto w_spy = apps::Spyware::install(on_wl).value();
  auto& comp = on_wl.compositor();
  EXPECT_EQ(comp.data_devices()
                .set_selection(w_spy->client(), 424242, {"text/plain"})
                .code(),
            Code::kBadAccess);
  EXPECT_EQ(comp.stats().forged_serials, 1u);
  EXPECT_TRUE(on_wl.kernel()
                  .processes()
                  .lookup(w_victim->pid())
                  ->interaction_ts.is_never());
  EXPECT_EQ(comp.input_stats().interaction_notifications, 0u);
  EXPECT_EQ(on_wl.obs().metrics.counter_value("monitor.notifications"), 0u);
}

// The pre-threshold clickjack: on both backends a click into a just-mapped
// surface is delivered but mints no interaction record, so a copy right
// after it is denied.
TEST(BackendDiff, PreThresholdSurfaceMintsNoInteractionOnEitherBackend) {
  for (const auto backend :
       {DisplayBackendKind::kX11, DisplayBackendKind::kWayland}) {
    OverhaulSystem sys(config_for(backend));
    auto bait = sys.launch_gui_app("/usr/bin/bait", "bait", {0, 0, 200, 200},
                                   /*settle=*/false)
                    .value();
    sys.input().click(100, 100);
    EXPECT_TRUE(sys.kernel()
                    .processes()
                    .lookup(bait.pid)
                    ->interaction_ts.is_never())
        << core::display_backend_name(backend);
    EXPECT_EQ(sys.obs().metrics.counter_value("monitor.notifications"), 0u);
  }
}

}  // namespace
}  // namespace overhaul

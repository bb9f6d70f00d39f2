// Quickstart: boot an Overhaul-protected machine, watch input-driven access
// control make decisions.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "apps/launcher.h"
#include "apps/video_conf.h"
#include "core/system.h"
#include "core/timeline.h"
#include "obs/trace_export.h"

using namespace overhaul;

int main() {
  // 1. Boot: kernel + udev helper + X server + devices, Overhaul enabled.
  core::OverhaulSystem sys;
  std::printf("Booted. Sensitive devices: %s, %s\n",
              core::OverhaulSystem::mic_path().c_str(),
              core::OverhaulSystem::camera_path().c_str());

  // 2. Launch a video-conferencing app and click its call button.
  auto skype = apps::VideoConfApp::launch(sys).value();
  auto [cx, cy] = skype->click_point();
  sys.input().click(cx, cy);
  auto call = skype->start_call();
  std::printf("[user clicked]   mic: %s   cam: %s\n",
              call.mic.to_string().c_str(), call.cam.to_string().c_str());
  skype->end_call();

  // 3. The same request without a click is denied.
  sys.advance(sim::Duration::seconds(10));
  call = skype->start_call();
  std::printf("[no interaction] mic: %s   cam: %s\n",
              call.mic.to_string().c_str(), call.cam.to_string().c_str());

  // 4. P1 in action: launcher spawns a screenshot tool (Fig. 3).
  auto run = apps::LauncherApp::launch(sys).value();
  auto [lx, ly] = run->click_point();
  sys.input().click(lx, ly);
  sys.input().press_enter();
  auto shot = run->run_screenshot_program().value();
  auto img = shot->capture_screen();
  std::printf("[launcher→shot]  screen capture: %s (%dx%d)\n",
              img.is_ok() ? "OK" : img.status().to_string().c_str(),
              img.is_ok() ? img.value().width : 0,
              img.is_ok() ? img.value().height : 0);

  // 5. The unified timeline: inputs, notifications, decisions, alerts.
  std::printf("\nSession timeline:\n%s",
              core::render_timeline(core::build_timeline(sys)).c_str());
  std::printf("\nAlerts shown (%zu), all carrying the visual shared secret:\n",
              sys.xserver().alert_overlay().shown_count());
  for (const auto& alert : sys.xserver().alert_overlay().history()) {
    std::printf("  [secret:%s] %s\n",
                sys.xserver().alert_overlay().is_authentic(alert) ? "ok" : "BAD",
                alert.text.c_str());
  }
  // What the most recent one looks like on screen (Fig. 5 style):
  std::printf("\n%s", display::AlertOverlay::render_banner(
                          sys.xserver().alert_overlay().history().back())
                          .c_str());

  // 6. Observability: the same session as counters (what any process can
  // read from /proc/overhaul/metrics) and as a Chrome trace of virtual-time
  // spans (chrome://tracing / https://ui.perfetto.dev).
  auto metrics =
      sys.kernel().procfs().read(skype->pid(), "/proc/overhaul/metrics");
  std::printf("\n/proc/overhaul/metrics:\n%s",
              metrics.is_ok() ? metrics.value().c_str() : "unreadable\n");
  const std::string trace_path = "quickstart_trace.json";
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w"); f != nullptr) {
    const std::string trace = obs::to_chrome_json(sys.obs().tracer);
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s (%zu spans; open in chrome://tracing)\n",
                trace_path.c_str(), sys.obs().tracer.events().size());
  }
  return 0;
}

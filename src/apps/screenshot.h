// ScreenshotApp: a screenshot utility, including the delayed-shot mode.
//
// §V-C: "some of the screenshot tools we tested included an option to delay
// the shot by a user-specified time. By design, OVERHAUL does not support
// this functionality since the interaction notifications associated with
// the application expire before the screen could be captured." capture_now
// exercises the supported path (click → capture); capture_delayed schedules
// the capture on the virtual scheduler and reproduces the limitation when
// the delay exceeds δ.
#pragma once

#include <functional>
#include <memory>

#include "apps/runtime.h"

namespace overhaul::apps {

class ScreenshotApp : public GuiApp {
 public:
  static util::Result<std::unique_ptr<ScreenshotApp>> launch(
      core::OverhaulSystem& sys, const std::string& name = "gnome-screenshot");

  // Immediate capture (the harness delivered a hardware click just before).
  util::Result<display::Image> capture_now();

  // Schedule a capture after `delay`; the callback receives the result once
  // the scheduler reaches that point (drive with sys.advance()).
  void capture_after(sim::Duration delay,
                     std::function<void(util::Result<display::Image>)> done);

 private:
  using GuiApp::GuiApp;
};

}  // namespace overhaul::apps

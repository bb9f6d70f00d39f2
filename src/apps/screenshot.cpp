#include "apps/screenshot.h"

namespace overhaul::apps {

using util::Result;

Result<std::unique_ptr<ScreenshotApp>> ScreenshotApp::launch(
    core::OverhaulSystem& sys, const std::string& name) {
  auto handle = sys.launch_gui_app("/usr/bin/" + name, name,
                                   display::Rect{400, 500, 300, 120});
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<ScreenshotApp>(
      new ScreenshotApp(sys, handle.value(), name));
}

Result<display::Image> ScreenshotApp::capture_now() {
  return backend_capture_screen(sys(), *this);
}

void ScreenshotApp::capture_after(
    sim::Duration delay, std::function<void(Result<display::Image>)> done) {
  sys().scheduler().after(delay, [this, done = std::move(done)]() {
    done(backend_capture_screen(sys(), *this));
  });
}

}  // namespace overhaul::apps

#include "apps/launcher.h"

namespace overhaul::apps {

using util::Result;

Result<display::Image> ShotApp::capture_screen() {
  return sys_.xserver().screen().get_image(client_, x11::kRootWindow);
}

Result<std::unique_ptr<LauncherApp>> LauncherApp::launch(
    core::OverhaulSystem& sys) {
  auto handle = sys.launch_gui_app("/usr/bin/run", "run",
                                   display::Rect{300, 300, 400, 60});
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<LauncherApp>(new LauncherApp(sys, handle.value(), "run"));
}

Result<std::unique_ptr<ShotApp>> LauncherApp::run_screenshot_program(
    const std::string& program) {
  // fork + exec: the child's task_struct is a copy of the launcher's,
  // interaction timestamp included (P1).
  auto child = kernel().sys_spawn(pid(), "/usr/bin/" + program, program);
  if (!child.is_ok()) return child.status();

  auto client = xserver().attach_client(child.value());
  if (!client.is_ok()) return client.status();

  return std::make_unique<ShotApp>(sys(), child.value(), client.value());
}

}  // namespace overhaul::apps

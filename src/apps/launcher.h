// LauncherApp + ShotApp: the Fig. 3 scenario.
//
// "the user first executes a program launcher Run, types in the name of the
// program Shot, and the application launcher executes Shot on the user's
// behalf ... Run creates a new process Shot, and the screen capture request
// is made by this different process for which there exists no interaction
// record" — unless P1 duplicates the launcher's record at fork time, which
// is exactly what the process table does.
#pragma once

#include <memory>

#include "apps/runtime.h"

namespace overhaul::apps {

// The spawned screen-capture program. Headless process + X connection (it
// does not need a window of its own to issue GetImage).
class ShotApp {
 public:
  ShotApp(core::OverhaulSystem& sys, kern::Pid pid, x11::ClientId client)
      : sys_(sys), pid_(pid), client_(client) {}

  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] x11::ClientId client() const noexcept { return client_; }

  // GetImage on the root window.
  util::Result<display::Image> capture_screen();

 private:
  core::OverhaulSystem& sys_;
  kern::Pid pid_;
  x11::ClientId client_;
};

class LauncherApp : public GuiApp {
 public:
  static util::Result<std::unique_ptr<LauncherApp>> launch(
      core::OverhaulSystem& sys);

  // The user has typed a program name and hit Enter (hardware events the
  // harness delivered to this window). The launcher forks + execs the
  // program — P1 hands the child the launcher's interaction record.
  util::Result<std::unique_ptr<ShotApp>> run_screenshot_program(
      const std::string& program = "shot");

 private:
  using GuiApp::GuiApp;
};

}  // namespace overhaul::apps

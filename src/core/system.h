// OverhaulSystem: a booted machine.
//
// Builds the virtual clock and scheduler, the kernel, the display server
// (X11 or Wayland, per `OverhaulConfig::display_backend`), the hardware
// input driver, installs the standard sensitive devices (microphone +
// camera), starts the trusted udev helper, and configures the alert
// overlay. This is the object every example, test scenario, and benchmark
// constructs — once with the default config for an Overhaul-protected
// machine, once with `OverhaulConfig::baseline()` for the unmodified
// machine.
//
// Both display servers implement the core::DisplayBackend seam, so code
// that only needs to launch apps, feed input, and read alerts goes through
// `display()`; backend-specific protocol surfaces (ICCCM selections, XTEST,
// wl_data_device, screencopy) live behind `xserver()` / `compositor()`,
// which are only valid on the matching backend.
#pragma once

#include <memory>
#include <string>

#include "core/config.h"
#include "core/display_backend.h"
#include "kern/kernel.h"
#include "obs/obs.h"
#include "sim/clock.h"
#include "sim/scheduler.h"
#include "wl/compositor.h"
#include "x11/server.h"

namespace overhaul::core {

class OverhaulSystem {
 public:
  explicit OverhaulSystem(OverhaulConfig config = {});

  OverhaulSystem(const OverhaulSystem&) = delete;
  OverhaulSystem& operator=(const OverhaulSystem&) = delete;

  [[nodiscard]] const OverhaulConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] kern::Kernel& kernel() noexcept { return *kernel_; }
  // The booted display server, backend-neutral.
  [[nodiscard]] DisplayBackend& display() noexcept { return *display_; }
  // Backend-specific accessors — only valid when the matching backend was
  // selected in the config (the other one was never constructed).
  [[nodiscard]] x11::XServer& xserver() noexcept { return *xserver_; }
  [[nodiscard]] wl::WlCompositor& compositor() noexcept { return *compositor_; }
  [[nodiscard]] HardwareInputDriver& input() noexcept { return *input_; }
  [[nodiscard]] audit::Sink& audit() noexcept { return kernel_->audit(); }
  [[nodiscard]] obs::Observability& obs() noexcept { return kernel_->obs(); }

  // --- standard devices ------------------------------------------------------
  [[nodiscard]] kern::DeviceId microphone() const noexcept { return mic_; }
  [[nodiscard]] kern::DeviceId camera() const noexcept { return cam_; }
  [[nodiscard]] static std::string mic_path() { return "/dev/snd/mic0"; }
  [[nodiscard]] static std::string camera_path() { return "/dev/video0"; }

  // --- convenience -------------------------------------------------------------
  // Advance virtual time (running any due scheduler events first).
  void advance(sim::Duration d) {
    scheduler_.run_until(clock_.now() + d);
  }

  // A launched GUI application: its process, display connection, and main
  // surface (an X window or a Wayland surface, depending on the backend).
  struct AppHandle {
    kern::Pid pid = kern::kNoPid;
    std::uint32_t client = 0;
    std::uint32_t window = 0;
  };

  // Spawn a process (child of `parent`, default init), connect it to the
  // display server, create + map a main surface. When `settle` is true the
  // clock is advanced past the clickjacking visibility threshold so the
  // surface is immediately eligible for interactions (i.e. "the app has
  // been on screen for a while").
  util::Result<AppHandle> launch_gui_app(const std::string& exe,
                                         const std::string& comm,
                                         display::Rect rect = {0, 0, 400, 300},
                                         bool settle = true,
                                         kern::Pid parent = 1);

  // Spawn a headless process (no display connection) — daemons, malware,
  // shells.
  util::Result<kern::Pid> launch_daemon(const std::string& exe,
                                        const std::string& comm,
                                        kern::Pid parent = 1);

 private:
  OverhaulConfig config_;
  sim::Clock clock_;
  sim::Scheduler scheduler_;
  std::unique_ptr<kern::Kernel> kernel_;
  std::unique_ptr<x11::XServer> xserver_;
  std::unique_ptr<wl::WlCompositor> compositor_;
  DisplayBackend* display_ = nullptr;  // whichever of the two was booted
  std::unique_ptr<HardwareInputDriver> input_;
  kern::DeviceId mic_ = kern::kNoDevice;
  kern::DeviceId cam_ = kern::kNoDevice;
};

}  // namespace overhaul::core

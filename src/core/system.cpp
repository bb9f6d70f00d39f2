#include "core/system.h"

namespace overhaul::core {

using kern::Pid;
using util::Code;
using util::Result;
using util::Status;

OverhaulSystem::OverhaulSystem(OverhaulConfig config)
    : config_(std::move(config)), scheduler_(clock_) {
  kernel_ = std::make_unique<kern::Kernel>(clock_, config_.kernel_config());
  kernel_->obs().tracer.set_enabled(config_.trace);
  scheduler_.set_depth_observer(
      [gauge = kernel_->obs().metrics.gauge("sim.scheduler.depth")](
          std::size_t depth) { gauge->record(depth); });

  // Boot order mirrors a real machine: devices appear, udev maps them, then
  // the display server starts and connects its netlink channel.
  auto mic = kernel_->install_device(kern::DeviceClass::kMicrophone,
                                     "HDA Intel capture", mic_path());
  auto cam = kernel_->install_device(kern::DeviceClass::kCamera,
                                     "UVC webcam", camera_path());
  mic_ = mic.is_ok() ? mic.value() : kern::kNoDevice;
  cam_ = cam.is_ok() ? cam.value() : kern::kNoDevice;
  // A harmless device for negative tests.
  (void)kernel_->install_device(kern::DeviceClass::kHarmless, "null",
                                "/dev/null");

  if (config_.enabled) {
    // The trusted helper performs its coldplug pass here, mapping the
    // sensitive nodes into the kernel's mediation table.
    (void)kernel_->start_udev_helper();
  }

  if (config_.display_backend == DisplayBackendKind::kWayland) {
    compositor_ = std::make_unique<wl::WlCompositor>(
        *kernel_, config_.display_config());
    display_ = compositor_.get();
  } else {
    xserver_ =
        std::make_unique<x11::XServer>(*kernel_, config_.display_config());
    display_ = xserver_.get();
  }
  display_->alert_overlay().set_shared_secret(config_.shared_secret);
  display_->alert_overlay().set_display_duration(config_.alert_duration);
  input_ = std::make_unique<HardwareInputDriver>(*display_);

  // Prompt mode rides on the X11 prompt strip; the Wayland backend ships
  // only the transparent model (the paper's preferred configuration).
  if (config_.enabled && config_.prompt_mode && xserver_ != nullptr) {
    // Route would-be denials through the unforgeable prompt (§IV-A).
    kernel_->monitor().set_prompt_handler(
        [this](kern::Pid pid, util::Op op) {
          const kern::TaskStruct* task = kernel_->processes().lookup(pid);
          return xserver_->prompts().ask(
              pid, task != nullptr ? task->comm : "?", op);
        });
  }
}

namespace {
// Desktop applications run with the logged-in user's privileges — the
// paper's threat model ("malicious code can execute with the privileges of
// the user", §II), never root.
constexpr kern::Uid kDesktopUid = 1000;
}  // namespace

Result<OverhaulSystem::AppHandle> OverhaulSystem::launch_gui_app(
    const std::string& exe, const std::string& comm, display::Rect rect,
    bool settle, Pid parent) {
  auto pid = kernel_->sys_spawn(parent, exe, comm);
  if (!pid.is_ok()) return pid.status();
  if (auto* task = kernel_->processes().lookup(pid.value());
      task != nullptr && task->uid == kern::kRootUid) {
    task->uid = kDesktopUid;
  }

  auto client = display_->attach_client(pid.value());
  if (!client.is_ok()) return client.status();

  auto window = display_->open_surface(client.value(), rect);
  if (!window.is_ok()) return window.status();
  if (auto s = display_->show_surface(client.value(), window.value());
      !s.is_ok())
    return s;

  if (settle) {
    // Let the window pass the clickjacking visibility threshold, as a window
    // that has been on screen for a while would have.
    advance(config_.visibility_threshold + sim::Duration::millis(1));
  }

  return AppHandle{pid.value(), client.value(), window.value()};
}

Result<Pid> OverhaulSystem::launch_daemon(const std::string& exe,
                                          const std::string& comm,
                                          Pid parent) {
  auto pid = kernel_->sys_spawn(parent, exe, comm);
  if (!pid.is_ok()) return pid;
  if (auto* task = kernel_->processes().lookup(pid.value());
      task != nullptr && task->uid == kern::kRootUid) {
    task->uid = kDesktopUid;
  }
  return pid;
}

}  // namespace overhaul::core

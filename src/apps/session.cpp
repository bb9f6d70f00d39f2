#include "apps/session.h"

namespace overhaul::apps {

using util::Code;
using util::Status;

Status DesktopSession::login() {
  if (logged_in_) return Status(Code::kExists, "already logged in");
  logged_in_ = true;

  int slot = 0;
  for (const AutostartEntry& entry : autostart_) {
    auto handle = sys_.launch_gui_app(
        entry.exe, entry.comm,
        display::Rect{20 + slot * 40, 20 + slot * 30, 320, 240},
        /*settle=*/false);
    ++slot;
    if (!handle.is_ok()) continue;  // a broken autostart entry is skipped
    session_apps_.push_back(handle.value());
    session_comms_.push_back(entry.comm);

    if (entry.probes_camera_at_launch) {
      // The Skype behaviour: touch the camera right after launch, before
      // the user has interacted with anything.
      auto fd = sys_.kernel().sys_open(handle.value().pid,
                                       core::OverhaulSystem::camera_path(),
                                       kern::OpenFlags::kRead);
      if (fd.is_ok())
        (void)sys_.kernel().sys_close(handle.value().pid, fd.value());
    }
  }
  return Status::ok();
}

Status DesktopSession::logout() {
  if (!logged_in_) return Status(Code::kNotFound, "not logged in");
  for (const auto& handle : session_apps_) {
    (void)sys_.xserver().disconnect_client(handle.client);
    (void)sys_.kernel().sys_exit(handle.pid);
  }
  session_apps_.clear();
  session_comms_.clear();
  logged_in_ = false;
  return Status::ok();
}

core::OverhaulSystem::AppHandle DesktopSession::find(
    const std::string& comm) const {
  for (std::size_t i = 0; i < session_comms_.size(); ++i) {
    if (session_comms_[i] == comm) return session_apps_[i];
  }
  return {};
}

}  // namespace overhaul::apps

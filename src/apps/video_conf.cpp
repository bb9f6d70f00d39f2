#include "apps/video_conf.h"

namespace overhaul::apps {

using util::Result;
using util::Status;

Result<std::unique_ptr<VideoConfApp>> VideoConfApp::launch(
    core::OverhaulSystem& sys, const std::string& name, bool settle) {
  auto handle = sys.launch_gui_app("/usr/bin/" + name, name,
                                   display::Rect{100, 100, 640, 480}, settle);
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<VideoConfApp>(
      new VideoConfApp(sys, handle.value(), name));
}

Status VideoConfApp::probe_camera_at_startup() {
  // No preceding user input: under Overhaul this is the §V-C spurious-alert
  // case; at baseline it simply succeeds.
  auto fd = kernel().sys_open(pid(), core::OverhaulSystem::camera_path(),
                              kern::OpenFlags::kRead);
  if (!fd.is_ok()) return fd.status();
  // The probe closes the device immediately (Skype is checking presence).
  (void)kernel().sys_close(pid(), fd.value());
  return Status::ok();
}

VideoConfApp::CallResult VideoConfApp::start_call() {
  CallResult result;
  auto mic = kernel().sys_open(pid(), core::OverhaulSystem::mic_path(),
                               kern::OpenFlags::kRead);
  result.mic = mic.is_ok() ? Status::ok() : mic.status();
  if (mic.is_ok()) mic_fd_ = mic.value();

  auto cam = kernel().sys_open(pid(), core::OverhaulSystem::camera_path(),
                               kern::OpenFlags::kRead);
  result.cam = cam.is_ok() ? Status::ok() : cam.status();
  if (cam.is_ok()) cam_fd_ = cam.value();
  return result;
}

void VideoConfApp::end_call() {
  if (mic_fd_ >= 0) (void)kernel().sys_close(pid(), mic_fd_);
  if (cam_fd_ >= 0) (void)kernel().sys_close(pid(), cam_fd_);
  mic_fd_ = cam_fd_ = -1;
}

}  // namespace overhaul::apps

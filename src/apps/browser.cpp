#include "apps/browser.h"

namespace overhaul::apps {

using util::Code;
using util::Result;
using util::Status;

Result<std::unique_ptr<MultiProcessBrowser>> MultiProcessBrowser::launch(
    core::OverhaulSystem& sys, const std::string& name) {
  auto handle = sys.launch_gui_app("/usr/bin/" + name, name,
                                   display::Rect{50, 50, 800, 600});
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<MultiProcessBrowser>(
      new MultiProcessBrowser(sys, handle.value(), name));
}

Result<std::size_t> MultiProcessBrowser::open_tab() {
  auto& k = kernel();
  // Renderer = fork of the main process (Chromium zygote style). Note the
  // fork itself copies the interaction timestamp (P1) — but the Fig. 4 point
  // is the *later* command, long after the fork-time stamp expired.
  auto tab_pid = k.sys_fork(pid());
  if (!tab_pid.is_ok()) return tab_pid.status();
  (void)k.sys_execve(tab_pid.value(), "/usr/bin/" + name(), name() + "-tab");

  Tab tab;
  tab.pid = tab_pid.value();
  const std::string shm_name =
      "/browser-cmd-" + std::to_string(tabs_.size()) + "-" +
      std::to_string(pid());
  auto segment =
      k.posix_shms().open(shm_name, /*create=*/true, kern::kPageSize);
  if (!segment.is_ok()) return segment.status();
  tab.channel = segment.value();

  auto browser_map = k.sys_mmap_shared(pid(), tab.channel);
  if (!browser_map.is_ok()) return browser_map.status();
  tab.browser_map = browser_map.value();

  auto tab_map = k.sys_mmap_shared(tab.pid, tab.channel);
  if (!tab_map.is_ok()) return tab_map.status();
  tab.tab_map = tab_map.value();

  tabs_.push_back(std::move(tab));
  return tabs_.size() - 1;
}

Status MultiProcessBrowser::command_start_camera(std::size_t tab_index) {
  if (tab_index >= tabs_.size())
    return Status(Code::kInvalidArgument, "no such tab");
  kern::TaskStruct* browser = kernel().processes().lookup_live(pid());
  if (browser == nullptr) return Status(Code::kNotFound, "browser task gone");
  // Shared-memory write = IPC send; the page-fault interposition stamps the
  // segment with the browser's interaction timestamp.
  tabs_[tab_index].browser_map->write_u64(*browser, 0, kCmdStartCamera);
  return Status::ok();
}

Status MultiProcessBrowser::tab_poll_and_run(std::size_t tab_index) {
  if (tab_index >= tabs_.size())
    return Status(Code::kInvalidArgument, "no such tab");
  Tab& tab = tabs_[tab_index];
  kern::TaskStruct* renderer = kernel().processes().lookup_live(tab.pid);
  if (renderer == nullptr) return Status(Code::kNotFound, "tab task gone");

  // Shared-memory read = IPC receive; adopts the segment's timestamp.
  const std::uint64_t cmd = tab.tab_map->read_u64(*renderer, 0);
  if (cmd != kCmdStartCamera)
    return Status(Code::kWouldBlock, "no pending command");

  // Acknowledge and open the camera from the renderer process.
  tab.tab_map->write_u64(*renderer, 0, kCmdNone);
  auto fd = kernel().sys_open(tab.pid, core::OverhaulSystem::camera_path(),
                              kern::OpenFlags::kRead);
  if (!fd.is_ok()) return fd.status();
  (void)kernel().sys_close(tab.pid, fd.value());
  return Status::ok();
}

}  // namespace overhaul::apps

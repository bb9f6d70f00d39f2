// DesktopSession: login sessions with autostart entries.
//
// §V-C's one spurious alert happens at *boot*: "When Skype was configured
// to automatically start on boot, this situation led to a camera access
// without user interaction, and consequently, OVERHAUL blocked the access
// and produced an alert. This did not cause subsequent video calls to
// fail". The session manager reproduces that lifecycle: login launches the
// autostart list (any launch-time device probes run before the user has
// touched anything), logout terminates the session's processes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/video_conf.h"
#include "core/system.h"

namespace overhaul::apps {

class DesktopSession {
 public:
  explicit DesktopSession(core::OverhaulSystem& sys) : sys_(sys) {}

  struct AutostartEntry {
    std::string exe;
    std::string comm;
    bool probes_camera_at_launch = false;  // Skype-style
  };

  void add_autostart(AutostartEntry entry) {
    autostart_.push_back(std::move(entry));
  }

  // Launch every autostart entry. Probes run immediately (before any user
  // input); their outcome is visible via the audit log / alert overlay.
  util::Status login();

  // Terminate every process this session launched.
  util::Status logout();

  [[nodiscard]] bool logged_in() const noexcept { return logged_in_; }
  [[nodiscard]] const std::vector<core::OverhaulSystem::AppHandle>& apps()
      const noexcept {
    return session_apps_;
  }
  // Handle for an autostarted app by comm name (kNoPid if absent).
  [[nodiscard]] core::OverhaulSystem::AppHandle find(
      const std::string& comm) const;

 private:
  core::OverhaulSystem& sys_;
  std::vector<AutostartEntry> autostart_;
  std::vector<core::OverhaulSystem::AppHandle> session_apps_;
  std::vector<std::string> session_comms_;
  bool logged_in_ = false;
};

}  // namespace overhaul::apps

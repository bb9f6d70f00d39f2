#include "apps/password_manager.h"

namespace overhaul::apps {

using util::Result;
using util::Status;

Result<std::unique_ptr<PasswordManagerApp>> PasswordManagerApp::launch(
    core::OverhaulSystem& sys) {
  auto handle = sys.launch_gui_app("/usr/bin/keepass", "keepass",
                                   display::Rect{600, 100, 380, 500});
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<PasswordManagerApp>(
      new PasswordManagerApp(sys, handle.value(), "keepass"));
}

Status PasswordManagerApp::copy_password_to_clipboard(const std::string& site) {
  pending_clipboard_ = password_for(site);
  return backend_copy(sys(), *this, "CLIPBOARD");
}

Result<std::unique_ptr<EditorApp>> EditorApp::launch(core::OverhaulSystem& sys,
                                                     const std::string& name) {
  auto handle = sys.launch_gui_app("/usr/bin/" + name, name,
                                   display::Rect{120, 420, 500, 300});
  if (!handle.is_ok()) return handle.status();
  return std::unique_ptr<EditorApp>(new EditorApp(sys, handle.value(), name));
}

Result<std::string> EditorApp::paste_from(PasswordManagerApp& source) {
  auto pasted = backend_paste(sys(), source, *this, "CLIPBOARD",
                              source.pending_clipboard());
  if (pasted.is_ok()) buffer_ += pasted.value();
  return pasted;
}

}  // namespace overhaul::apps

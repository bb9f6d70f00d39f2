// Clipboard-sniffing attack walkthrough (§IV-A, Fig. 6): a password manager
// copies a password; a malicious client tries every protocol bypass the
// paper enumerates. Each attempt is shown with Overhaul's verdict.
#include <cstdio>

#include "apps/password_manager.h"
#include "apps/runtime.h"
#include "core/system.h"

using namespace overhaul;

namespace {

void verdict(const char* attack, const util::Status& s) {
  std::printf("  %-52s %s\n", attack,
              s.is_ok() ? "SUCCEEDED (!)" : s.to_string().c_str());
}

class MalloryApp : public apps::GuiApp {
 public:
  using GuiApp::GuiApp;
};

}  // namespace

int main() {
  core::OverhaulSystem sys;
  auto& x = sys.xserver();
  const x11::Atom clipboard = x11::AtomRegistry::kClipboard;
  const x11::Atom loot = x.atoms().intern("LOOT");
  const x11::Atom p = x.atoms().intern("P");

  auto pm = apps::PasswordManagerApp::launch(sys).value();
  auto editor = apps::EditorApp::launch(sys).value();
  pm->store_password("bank", "hunter2");

  auto mal_handle = sys.launch_gui_app("/home/user/.sniffer", "sniffer");
  MalloryApp mallory(sys, mal_handle.value(), "sniffer");

  // The user copies the password (legitimately).
  (void)x.raise_surface(pm->client(), pm->window());
  auto [cx, cy] = pm->click_point();
  sys.input().click(cx, cy);
  sys.input().press_copy_chord();
  (void)pm->copy_password_to_clipboard("bank");
  std::printf("user copied a password from the password manager\n\n");
  std::printf("attacks, 5 seconds later (no user interaction):\n");
  sys.advance(sim::Duration::seconds(5));

  // Attack 1: straightforward ConvertSelection paste.
  {
    auto s = x.selections().convert_selection(mallory.client(), clipboard,
                                              mallory.window(), loot);
    verdict("ConvertSelection without user input", s);
  }
  // Attack 2: forged SelectionRequest via SendEvent.
  {
    x11::XEvent forged;
    forged.type = x11::EventType::kSelectionRequest;
    forged.selection = clipboard;
    forged.property = loot;
    forged.requestor = mallory.window();
    verdict("SendEvent(SelectionRequest) to the owner",
            x.send_event(mallory.client(), pm->window(), forged));
  }
  // Attack 3: fake a paste chord with XTEST, then convert.
  {
    (void)x.raise_surface(mallory.client(), mallory.window());
    auto [mx, my] = mallory.click_point();
    (void)x.xtest_fake_button(mallory.client(), mx, my);
    auto s = x.selections().convert_selection(mallory.client(), clipboard,
                                              mallory.window(), loot);
    verdict("XTEST-faked click, then ConvertSelection", s);
  }
  // Attack 4: snoop the property mid-flight during a legitimate paste.
  {
    (void)x.raise_surface(editor->client(), editor->window());
    auto [ex, ey] = editor->click_point();
    sys.input().click(ex, ey);
    sys.input().press_paste_chord();
    // Run the paste up to the data handoff.
    (void)x.selections().convert_selection(editor->client(), clipboard,
                                           editor->window(), p);
    for (const auto& ev : pm->pump_events()) {
      if (ev.type == x11::EventType::kSelectionRequest) {
        (void)x.selections().change_property(pm->client(), ev.requestor,
                                             ev.property, "hunter2");
      }
    }
    auto sniff =
        x.selections().get_property(mallory.client(), editor->window(), p);
    verdict("GetProperty on in-flight clipboard data",
            sniff.is_ok() ? util::Status::ok() : sniff.status());
    // The rightful target still completes its paste (steps 11–13).
    auto legit = x.selections().get_property(editor->client(),
                                             editor->window(), p, /*del=*/true);
    std::printf("  %-52s %s\n", "(the legitimate paste target reads it)",
                legit.is_ok() ? "OK" : legit.status().to_string().c_str());
  }

  std::printf("\nclipboard decisions in the audit log:\n");
  for (const auto& rec : sys.audit().records()) {
    if (rec.op == util::Op::kCopy || rec.op == util::Op::kPaste) {
      std::printf("  %s\n", util::format_record(rec).c_str());
    }
  }
  return 0;
}

// Security scorecard: the paper's attack surface as a battery, run against
// both machines. Every row is an attack technique from §II–§IV; the Overhaul
// column should read BLOCKED top to bottom, the baseline column shows what
// an unmodified system gives away. (The differential is the paper's security
// argument in one table.)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/password_manager.h"
#include "bench_report.h"
#include "apps/runtime.h"
#include "apps/spyware.h"
#include "core/system.h"

using namespace overhaul;

namespace {

struct Attack {
  std::string name;
  // Returns true if the attack SUCCEEDED (resource/data obtained).
  std::function<bool(core::OverhaulSystem&)> run;
};

std::vector<Attack> attack_battery() {
  return {
      {"background mic capture",
       [](core::OverhaulSystem& sys) {
         auto spy = apps::Spyware::install(sys).value();
         return spy->try_record_microphone().is_ok();
       }},
      {"background screenshot",
       [](core::OverhaulSystem& sys) {
         auto spy = apps::Spyware::install(sys).value();
         return spy->try_screenshot().is_ok();
       }},
      {"clipboard sniff after user copy",
       [](core::OverhaulSystem& sys) {
         auto pm = apps::PasswordManagerApp::launch(sys).value();
         pm->store_password("bank", "hunter2");
         auto [cx, cy] = pm->click_point();
         sys.input().click(cx, cy);
         (void)pm->copy_password_to_clipboard("bank");
         sys.advance(sim::Duration::seconds(5));
         auto spy = apps::Spyware::install(sys).value();
         return spy->try_sniff_clipboard(*pm, "hunter2").is_ok();
       }},
      {"XTEST-faked click, then camera",
       [](core::OverhaulSystem& sys) {
         auto victim =
             sys.launch_gui_app("/usr/bin/cheese", "cheese").value();
         auto mal = apps::Spyware::install(sys).value();
         const auto& r = sys.xserver().surface(victim.window)->rect();
         (void)sys.xserver().xtest_fake_button(mal->client(), r.x + 5, r.y + 5);
         auto fd = sys.kernel().sys_open(victim.pid,
                                         core::OverhaulSystem::camera_path(),
                                         kern::OpenFlags::kRead);
         return fd.is_ok();
       }},
      {"SendEvent-forged SelectionRequest",
       [](core::OverhaulSystem& sys) {
         auto pm = apps::PasswordManagerApp::launch(sys).value();
         pm->store_password("bank", "hunter2");
         auto [cx, cy] = pm->click_point();
         sys.input().click(cx, cy);
         (void)pm->copy_password_to_clipboard("bank");
         auto mal = apps::Spyware::install(sys).value();
         x11::XEvent forged;
         forged.type = x11::EventType::kSelectionRequest;
         forged.selection = x11::AtomRegistry::kClipboard;
         forged.property = sys.xserver().atoms().intern("LOOT");
         forged.requestor = mal->window();
         return sys.xserver()
             .send_event(mal->client(), pm->window(), forged)
             .is_ok();
       }},
      {"transparent-overlay clickjack",
       [](core::OverhaulSystem& sys) {
         auto victim = sys.launch_gui_app("/usr/bin/bank-app", "bank-app",
                                          display::Rect{0, 0, 200, 200})
                           .value();
         (void)victim;
         auto trap = sys.launch_gui_app("/home/user/.trap", "trap",
                                        display::Rect{0, 0, 200, 200})
                         .value();
         (void)sys.xserver().set_input_only(trap.client, trap.window, true);
         sys.advance(sim::Duration::minutes(2));
         sys.input().click(100, 100);
         auto fd = sys.kernel().sys_open(trap.pid,
                                         core::OverhaulSystem::mic_path(),
                                         kern::OpenFlags::kRead);
         return fd.is_ok();
       }},
      {"pop-over window harvest",
       [](core::OverhaulSystem& sys) {
         auto trap = sys.launch_gui_app("/home/user/.trap", "trap",
                                        display::Rect{0, 0, 200, 200}, false)
                         .value();
         sys.input().click(100, 100);  // window mapped an instant ago
         auto fd = sys.kernel().sys_open(trap.pid,
                                         core::OverhaulSystem::mic_path(),
                                         kern::OpenFlags::kRead);
         return fd.is_ok();
       }},
      {"ptrace into privileged app",
       [](core::OverhaulSystem& sys) {
         auto mal = sys.launch_daemon("/home/user/.mal", "mal").value();
         auto victim =
             sys.kernel().sys_spawn(mal, "/usr/bin/rec", "rec").value();
         (void)sys.kernel().sys_ptrace_attach(mal, victim);
         sys.kernel().monitor().record_interaction(victim, sys.clock().now());
         auto fd = sys.kernel().sys_open(victim,
                                         core::OverhaulSystem::mic_path(),
                                         kern::OpenFlags::kRead);
         return fd.is_ok();
       }},
      {"netlink impersonation of Xorg",
       [](core::OverhaulSystem& sys) {
         auto mal = sys.launch_daemon("/home/user/.fake-xorg", "Xorg").value();
         return sys.kernel().netlink().connect(mal).is_ok();
       }},
      {"delayed capture beyond δ",
       [](core::OverhaulSystem& sys) {
         auto tool = sys.launch_gui_app("/usr/bin/shot", "shot").value();
         const auto& r = sys.xserver().surface(tool.window)->rect();
         sys.input().click(r.x + 5, r.y + 5);
         sys.advance(sys.config().delta + sim::Duration::seconds(1));
         return sys.xserver()
             .screen()
             .get_image(tool.client, x11::kRootWindow)
             .is_ok();
       }},
  };
}

}  // namespace

int main() {
  std::printf("Security scorecard: attack battery on both machines\n\n");
  std::printf("%-38s %12s %12s\n", "attack", "OVERHAUL", "baseline");

  int blocked = 0, total = 0;
  std::string rows;
  for (const Attack& attack : attack_battery()) {
    core::OverhaulSystem protected_sys;
    core::OverhaulSystem baseline_sys(core::OverhaulConfig::baseline());
    const bool on_overhaul = attack.run(protected_sys);
    const bool on_baseline = attack.run(baseline_sys);
    std::printf("%-38s %12s %12s\n", attack.name.c_str(),
                on_overhaul ? "SUCCEEDED" : "blocked",
                on_baseline ? "succeeded" : "blocked");
    ++total;
    blocked += !on_overhaul;
    if (!rows.empty()) rows += ",";
    rows += "{\"attack\":" + obs::json::quote(attack.name) +
            ",\"overhaul_blocked\":" + (on_overhaul ? "false" : "true") +
            ",\"baseline_blocked\":" + (on_baseline ? "false" : "true") + "}";
  }

  std::printf("\n%d/%d attacks blocked under OVERHAUL.\n", blocked, total);
  bench::JsonReport report("security_scorecard");
  report.add("blocked", blocked);
  report.add("total", total);
  report.add_raw("rows", "[" + rows + "]");
  (void)report.write("BENCH_security_scorecard.json");
  std::printf("(Netlink impersonation shows 'blocked' on both columns: the "
              "introspection-based\npeer authentication is part of the "
              "channel itself, not of the enforcement mode.)\n");
  return blocked == total ? 0 : 1;
}

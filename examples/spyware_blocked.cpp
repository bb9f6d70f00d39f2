// Spyware on two machines (§V-D in miniature): one protected by Overhaul,
// one unmodified. The same information-stealing malware runs on both for a
// simulated hour while the user works; compare the loot.
#include <cstdio>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "core/system.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

struct RunResult {
  int attempts = 0;
  int clipboard = 0, screenshots = 0, mic = 0;
  std::size_t alerts = 0;
};

RunResult run_machine(bool protected_machine) {
  core::OverhaulSystem sys(protected_machine
                               ? core::OverhaulConfig{}
                               : core::OverhaulConfig::baseline());
  util::Rng rng(2016);

  auto pm = apps::PasswordManagerApp::launch(sys).value();
  auto editor = apps::EditorApp::launch(sys).value();
  pm->store_password("bank", "correct-horse-battery");
  auto spy = apps::Spyware::install(sys).value();

  // One simulated hour: the user works (clicks, copies, pastes); the
  // spyware wakes every ~2 minutes and tries all three vectors.
  const sim::Timestamp end = sys.clock().now() + sim::Duration::hours(1);
  sim::Timestamp next_spy = sys.clock().now() + sim::Duration::minutes(2);
  while (sys.clock().now() < end) {
    // User activity burst.
    auto [cx, cy] = pm->click_point();
    (void)sys.xserver().raise_surface(pm->client(), pm->window());
    sys.input().click(cx, cy);
    sys.input().press_copy_chord();
    (void)pm->copy_password_to_clipboard("bank");
    (void)sys.xserver().raise_surface(editor->client(), editor->window());
    auto [ex, ey] = editor->click_point();
    sys.input().click(ex, ey);
    sys.input().press_paste_chord();
    (void)editor->paste_from(*pm);

    sys.advance(sim::Duration::seconds(30 + rng.uniform(0, 60)));

    if (sys.clock().now() >= next_spy) {
      (void)spy->try_sniff_clipboard(*pm, pm->pending_clipboard());
      (void)spy->try_screenshot();
      (void)spy->try_record_microphone();
      next_spy = sys.clock().now() + sim::Duration::minutes(2);
    }
  }

  RunResult r;
  r.attempts = spy->attempts().total();
  r.clipboard = static_cast<int>(spy->loot().clipboard.size());
  r.screenshots = spy->loot().screenshots;
  r.mic = spy->loot().mic_samples;
  r.alerts = sys.xserver().alert_overlay().shown_count();
  return r;
}

}  // namespace

int main() {
  std::printf("Running identical spyware on two machines for 1 simulated hour...\n\n");
  const RunResult prot = run_machine(true);
  const RunResult base = run_machine(false);

  std::printf("%-28s %15s %15s\n", "", "OVERHAUL", "unprotected");
  std::printf("%-28s %15d %15d\n", "spy attempts", prot.attempts, base.attempts);
  std::printf("%-28s %15d %15d\n", "clipboard strings stolen", prot.clipboard,
              base.clipboard);
  std::printf("%-28s %15d %15d\n", "screenshots taken", prot.screenshots,
              base.screenshots);
  std::printf("%-28s %15d %15d\n", "mic samples recorded", prot.mic, base.mic);
  std::printf("%-28s %15zu %15zu\n", "visual alerts raised", prot.alerts,
              base.alerts);

  const bool ok = prot.clipboard == 0 && prot.screenshots == 0 &&
                  prot.mic == 0 && base.clipboard > 0;
  std::printf("\n%s\n", ok ? "Overhaul blocked every exfiltration vector."
                           : "UNEXPECTED: protection failed!");
  return ok ? 0 : 1;
}

// §V-D empirical experiment regeneration: 21 days, two machines.
//
// The paper installs its sample spyware (clipboard poller + screenshotter +
// microphone recorder) on two personal computers, one protected by
// Overhaul, one unmodified, both in daily use for 21 days. Findings:
//   * the protected machine yielded NOTHING to the malware, every attempt
//     detected and blocked (verified from Overhaul's logs);
//   * the unprotected machine leaked screenshots (e-banking, email),
//     clipboard strings (passwords, phone numbers), and voice recordings;
//   * zero legitimate applications were incorrectly blocked in 21 days.
//
// Substitution: the author's daily use becomes a seeded diurnal workload —
// work sessions with clicks, copy/paste, video calls, user-driven
// screenshots — while the spyware wakes every ~10 minutes.
#include <cstdio>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "apps/user_model.h"
#include "apps/video_conf.h"
#include "bench_report.h"
#include "core/system.h"
#include "util/audit_report.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

constexpr int kDays = 21;

struct MachineResult {
  apps::Spyware::Attempts attempts;
  apps::Spyware::Loot loot;
  int legit_ops = 0;
  int legit_denied = 0;  // false positives
  std::size_t blocked_logged = 0;
  std::size_t alerts = 0;
  std::uint64_t audit_appended = 0;
  std::uint64_t audit_dropped = 0;  // ring evictions; 0 = 21 days fit the cap
  util::AuditReport report;
  std::string metrics_json;
};

MachineResult run_machine(bool protected_machine, std::uint64_t seed) {
  core::OverhaulSystem sys(protected_machine
                               ? core::OverhaulConfig{}
                               : core::OverhaulConfig::baseline());
  util::Rng rng(seed);

  auto pm = apps::PasswordManagerApp::launch(sys).value();
  auto editor = apps::EditorApp::launch(sys).value();
  auto skype = apps::VideoConfApp::launch(sys).value();
  pm->store_password("bank", "pa55-" + std::to_string(seed));
  auto spy = apps::Spyware::install(sys).value();

  MachineResult result;
  const auto legit = [&](const util::Status& s) {
    ++result.legit_ops;
    if (!s.is_ok()) ++result.legit_denied;
  };
  const auto click = [&](const apps::GuiApp& app) {
    (void)sys.xserver().raise_surface(app.client(), app.window());
    auto [cx, cy] = app.click_point();
    sys.input().click(cx, cy);
  };

  const apps::DiurnalSchedule schedule;
  const sim::Timestamp end = sys.clock().now() + sim::Duration::days(kDays);
  sim::Timestamp next_spy = sys.clock().now() + sim::Duration::minutes(10);

  while (sys.clock().now() < end) {
    const bool active = schedule.active_at(sys.clock().now());

    if (active) {
      // A burst of user work.
      const auto activity = rng.next_below(100);
      if (activity < 40) {
        // Copy/paste between the password manager and the editor.
        click(*pm);
        sys.input().press_copy_chord();
        legit(pm->copy_password_to_clipboard("bank"));
        click(*editor);
        sys.input().press_paste_chord();
        auto pasted = editor->paste_from(*pm);
        legit(pasted.is_ok() ? util::Status::ok() : pasted.status());
      } else if (activity < 55) {
        // A video call.
        click(*skype);
        auto call = skype->start_call();
        legit(call.mic);
        legit(call.cam);
        skype->end_call();
      } else if (activity < 65) {
        // A user-driven screenshot from the default tool.
        click(*editor);
        auto img = sys.xserver().screen().get_image(editor->client(),
                                                    x11::kRootWindow);
        legit(img.is_ok() ? util::Status::ok() : img.status());
      } else {
        // Plain typing/clicking with no sensitive access.
        click(*editor);
      }
      sys.advance(schedule.next_gap(sys.clock().now(), rng));
    } else {
      sys.advance(schedule.next_gap(sys.clock().now(), rng));
    }

    // The spyware's periodic sweep (day and night).
    while (sys.clock().now() >= next_spy) {
      (void)spy->try_sniff_clipboard(*pm, pm->pending_clipboard());
      (void)spy->try_screenshot();
      (void)spy->try_record_microphone();
      next_spy = next_spy + sim::Duration::minutes(10);
    }
  }

  result.attempts = spy->attempts();
  result.loot = spy->loot();
  result.alerts = sys.xserver().alert_overlay().shown_count();
  result.blocked_logged = sys.audit().count(util::Decision::kDeny);
  result.audit_appended = sys.audit().total_appended();
  result.audit_dropped = sys.audit().dropped();
  result.report = util::build_report(sys.audit().records());
  result.metrics_json = sys.obs().metrics.to_json();
  return result;
}

}  // namespace

int main() {
  std::printf("21-day empirical experiment (§V-D), seeded diurnal workload\n\n");
  const MachineResult prot = run_machine(true, 21);
  const MachineResult base = run_machine(false, 21);

  std::printf("%-36s %14s %14s\n", "", "OVERHAUL", "unprotected");
  std::printf("%-36s %14d %14d\n", "spyware attempts",
              prot.attempts.total(), base.attempts.total());
  std::printf("%-36s %14zu %14zu\n", "clipboard strings harvested",
              prot.loot.clipboard.size(), base.loot.clipboard.size());
  std::printf("%-36s %14d %14d\n", "screenshots harvested",
              prot.loot.screenshots, base.loot.screenshots);
  std::printf("%-36s %14d %14d\n", "voice samples harvested",
              prot.loot.mic_samples, base.loot.mic_samples);
  std::printf("%-36s %14d %14d\n", "legitimate user-driven ops",
              prot.legit_ops, base.legit_ops);
  std::printf("%-36s %14d %14d\n", "  of which incorrectly blocked",
              prot.legit_denied, base.legit_denied);
  std::printf("%-36s %14zu %14s\n", "blocked attempts in the audit log",
              prot.blocked_logged, "-");

  if (!base.loot.clipboard.empty()) {
    std::printf("\nsample of data the unprotected machine leaked: \"%s\"\n",
                base.loot.clipboard.front().c_str());
  }

  // The paper's §V-D log investigation: which applications used which
  // protected resources on the Overhaul machine.
  std::printf("\nOVERHAUL machine, audit-log report (who used what):\n%s",
              prot.report.to_string().c_str());

  const auto machine_json = [](const MachineResult& m) {
    return "{\"spyware_attempts\":" + std::to_string(m.attempts.total()) +
           ",\"clipboard_harvested\":" + std::to_string(m.loot.clipboard.size()) +
           ",\"screenshots_harvested\":" + std::to_string(m.loot.screenshots) +
           ",\"mic_samples_harvested\":" + std::to_string(m.loot.mic_samples) +
           ",\"legit_ops\":" + std::to_string(m.legit_ops) +
           ",\"legit_denied\":" + std::to_string(m.legit_denied) +
           ",\"blocked_logged\":" + std::to_string(m.blocked_logged) +
           ",\"audit_appended\":" + std::to_string(m.audit_appended) +
           ",\"audit_ring_dropped\":" + std::to_string(m.audit_dropped) +
           ",\"metrics\":" + m.metrics_json + "}";
  };
  bench::JsonReport json("longterm");
  json.add("days", kDays);
  json.add_raw("overhaul", machine_json(prot));
  json.add_raw("baseline", machine_json(base));
  (void)json.write("BENCH_longterm.json");

  // Every screenshot/mic attempt lands in the audit log as a denial; the
  // clipboard attempts that found no selection owner fail earlier in the
  // protocol (BadAtom) and are not policy decisions.
  const bool ok = prot.loot.empty() && prot.legit_denied == 0 &&
                  base.loot.total() > 0 &&
                  prot.blocked_logged >=
                      static_cast<std::size_t>(prot.attempts.screenshots +
                                               prot.attempts.mic);
  std::printf("\n%s\n",
              ok ? "Matches the paper: protected machine leaked nothing, "
                   "zero false positives over 21 days; unprotected machine "
                   "thoroughly spied on."
                 : "UNEXPECTED: long-term result diverges from the paper!");
  return ok ? 0 : 1;
}

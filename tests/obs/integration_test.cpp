// Cross-checks the obs counters against the audit log — the two telemetry
// surfaces must tell the same story on the paper's Fig. 1–4 flows — and
// validates the Chrome trace export of a full session.
#include <gtest/gtest.h>

#include "apps/browser.h"
#include "apps/launcher.h"
#include "core/system.h"
#include "obs/json.h"
#include "obs/trace_export.h"

namespace overhaul {
namespace {

using util::Decision;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  // Each monitor decision lands once in the audit log and once in the
  // decision counters; totals must agree exactly.
  void expect_counters_match_audit() {
    const auto& m = sys_.obs().metrics;
    EXPECT_EQ(m.counter_value("monitor.decisions.granted"),
              sys_.audit().count(Decision::kGrant));
    EXPECT_EQ(m.counter_value("monitor.decisions.denied"),
              sys_.audit().count(Decision::kDeny));
  }

  core::OverhaulSystem sys_;
};

TEST_F(ObsIntegrationTest, Fig1DeviceFlowCountersMatchAudit) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();

  // Click → grant.
  sys_.input().click(r.x + 2, r.y + 2);
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());
  (void)sys_.kernel().sys_close(app.pid, fd.value());

  // Past δ → deny.
  sys_.advance(sys_.config().delta + sim::Duration::seconds(1));
  EXPECT_FALSE(sys_.kernel()
                   .sys_open(app.pid, core::OverhaulSystem::mic_path(),
                             kern::OpenFlags::kRead)
                   .is_ok());

  const auto& m = sys_.obs().metrics;
  EXPECT_GE(m.counter_value("monitor.decisions.granted"), 1u);
  EXPECT_GE(m.counter_value("monitor.decisions.denied"), 1u);
  EXPECT_GE(m.counter_value("vfs.device.opens"), 1u);
  EXPECT_GE(m.counter_value("vfs.device.denials"), 1u);
  EXPECT_GE(m.counter_value("x11.input.hardware_events"), 1u);
  EXPECT_GE(m.counter_value("monitor.notifications"), 1u);
  expect_counters_match_audit();
}

TEST_F(ObsIntegrationTest, Fig2ClipboardFlowCountersMatchAudit) {
  auto src = sys_.launch_gui_app("/usr/bin/src", "src").value();
  auto dst = sys_.launch_gui_app("/usr/bin/dst", "dst",
                                 display::Rect{300, 0, 200, 200}).value();
  auto& sel = sys_.xserver().selections();

  const auto& rs = sys_.xserver().surface(src.window)->rect();
  sys_.input().click(rs.x + 2, rs.y + 2);
  const x11::Atom kClipboard = x11::AtomRegistry::kClipboard;
  const x11::Atom kP = sys_.xserver().atoms().intern("P");
  ASSERT_TRUE(sel.set_selection_owner(src.client, kClipboard, src.window)
                  .is_ok());

  const auto& rd = sys_.xserver().surface(dst.window)->rect();
  sys_.input().click(rd.x + 2, rd.y + 2);
  ASSERT_TRUE(sel.convert_selection(dst.client, kClipboard, dst.window, kP)
                  .is_ok());

  // A paste attempt long after the click is denied — and counted.
  sys_.advance(sys_.config().delta + sim::Duration::seconds(1));
  EXPECT_FALSE(sel.convert_selection(dst.client, kClipboard, dst.window, kP)
                   .is_ok());

  const auto& m = sys_.obs().metrics;
  EXPECT_GE(m.counter_value("netlink.msg.queries"), 3u);
  expect_counters_match_audit();
}

TEST_F(ObsIntegrationTest, Fig3LauncherFlowCountersMatchAudit) {
  auto run = apps::LauncherApp::launch(sys_).value();
  auto [lx, ly] = run->click_point();
  sys_.input().click(lx, ly);
  sys_.input().press_enter();
  auto shot = run->run_screenshot_program().value();
  EXPECT_TRUE(shot->capture_screen().is_ok());
  expect_counters_match_audit();
}

TEST_F(ObsIntegrationTest, Fig4BrowserShmFlowCountersMatchAudit) {
  auto browser = apps::MultiProcessBrowser::launch(sys_).value();
  auto tab = browser->open_tab().value();
  sys_.advance(sim::Duration::seconds(30));
  auto [cx, cy] = browser->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(browser->command_start_camera(tab).is_ok());
  sys_.advance(sim::Duration::millis(20));
  EXPECT_TRUE(browser->tab_poll_and_run(tab).is_ok());

  const auto& m = sys_.obs().metrics;
  // The command crossed the shm segment: the page-fault interposition fired.
  EXPECT_GE(m.counter_value("ipc.shm.page_faults"), 1u);
  EXPECT_GE(m.counter_value("ipc.shm.send_stamps") +
                m.counter_value("ipc.shm.recv_adoptions"),
            1u);
  expect_counters_match_audit();
}

TEST_F(ObsIntegrationTest, PipeStampsCounted) {
  auto& k = sys_.kernel();
  auto app = sys_.launch_gui_app("/usr/bin/term", "term").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  auto fds = k.sys_pipe(app.pid).value();
  ASSERT_TRUE(k.sys_write(app.pid, fds.second, "hello").is_ok());
  ASSERT_TRUE(k.sys_read(app.pid, fds.first, 5).is_ok());
  EXPECT_GE(sys_.obs().metrics.counter_value("ipc.pipe.send_stamps"), 1u);
}

TEST_F(ObsIntegrationTest, SchedulerDepthGaugeTracksQueue) {
  sys_.scheduler().after(sim::Duration::millis(5), [] {});
  sys_.scheduler().after(sim::Duration::millis(6), [] {});
  const auto* g = sys_.obs().metrics.find_gauge("sim.scheduler.depth");
  ASSERT_NE(g, nullptr);
  EXPECT_GE(g->max_seen(), 2);
  sys_.advance(sim::Duration::millis(10));
  EXPECT_EQ(g->value(), 0);
}

TEST_F(ObsIntegrationTest, SessionTraceExportsAsValidChromeJson) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().surface(app.window)->rect();
  sys_.input().click(r.x + 2, r.y + 2);
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());

  const std::string doc = obs::to_chrome_json(sys_.obs().tracer);
  std::string error;
  EXPECT_TRUE(obs::json::validate(doc, &error)) << error;
  EXPECT_NE(doc.find("PermissionMonitor::check"), std::string::npos);
  EXPECT_NE(doc.find("\"decision\":\"grant\""), std::string::npos);
}

TEST_F(ObsIntegrationTest, TraceDisabledByConfig) {
  core::OverhaulConfig cfg;
  cfg.trace = false;
  core::OverhaulSystem quiet(cfg);
  auto app = quiet.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = quiet.xserver().surface(app.window)->rect();
  quiet.input().click(r.x + 2, r.y + 2);
  (void)quiet.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                kern::OpenFlags::kRead);
  EXPECT_TRUE(quiet.obs().tracer.events().empty());
  // Counters stay on even with tracing off.
  EXPECT_GE(quiet.obs().metrics.counter_value("monitor.decisions.granted"),
            1u);
}

}  // namespace
}  // namespace overhaul

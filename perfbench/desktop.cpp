// desktop workload: input bursts into GUI apps followed by one mediated op.
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;
using util::Code;
using util::Op;

namespace {

constexpr int kOpMic = 0;
constexpr int kOpCamera = 1;
constexpr int kOpClipboard = 2;
constexpr int kOpCapture = 3;

// The 4 KiB text a paste moves: the size of a typical text clipboard.
constexpr std::size_t kPastePayload = 4096;

// A seat's audit ring holds this many records, so its memory does not depend
// on how many decisions the run got through. The warm-up slice fills it, so
// the ring's doublings, and the heap holes each leaves behind, are done
// before the measured loop. A ring still growing during the loop moves the
// peak RSS by up to a fifth from run to run with where those holes fall.
constexpr std::size_t kAuditCapacity = std::size_t{1} << 12;

// One app in five acts after δ has run out; with the daemon's attempts that
// puts about a quarter of all mediated ops past δ.
constexpr double kStaleShare = 0.2;
constexpr double kDaemonShare = 0.12;

}  // namespace

std::uint64_t counter(core::OverhaulSystem& sys, const std::string& name) {
  return sys.obs().metrics.counter_value(name);
}

DesktopWorkload::DesktopWorkload(std::uint64_t seed, bool mediated)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 11), oracle_(mediated) {
  core::OverhaulConfig cfg = mediated ? core::OverhaulConfig{}
                                      : core::OverhaulConfig::baseline();
  cfg.trace = false;
  sys_ = std::make_unique<core::OverhaulSystem>(cfg);
  sys_->audit().set_capacity(kAuditCapacity);
  const struct {
    const char* exe;
    const char* comm;
    display::Rect rect;
  } specs[] = {{"/usr/bin/editor", "editor", {0, 0, 400, 300}},
               {"/usr/bin/browser", "browser", {420, 0, 400, 300}},
               {"/usr/bin/syncd", "syncd", {700, 500, 200, 150}},
               {"/usr/bin/clipmgr", "clipmgr", {1000, 740, 16, 16}}};
  std::unique_ptr<apps::GuiApp>* slots[] = {&apps_[0], &apps_[1], &daemon_,
                                            &clipboard_};
  for (int i = 0; i < 4; ++i) {
    auto h = sys_->launch_gui_app(specs[i].exe, specs[i].comm, specs[i].rect);
    oracle_.ok(h.status());
    if (!h.is_ok()) return;
    *slots[i] = std::make_unique<apps::GuiApp>(*sys_, h.value(), specs[i].comm);
  }
  // A clipboard manager took CLIPBOARD at login and serves every paste; the
  // apps' own copies go to PRIMARY. (An X11 client cannot paste from its own
  // selection here: writing the data to its own window never marks the
  // transfer ready, so its SelectionNotify is refused.) The manager's input
  // is long past δ when the measured loop starts.
  auto [x, y] = clipboard_->click_point();
  sys_->input().click(x, y);
  oracle_.input(clipboard_->pid(), sys_->clock().now());
  oracle_.ok(apps::backend_copy(*sys_, *clipboard_, "CLIPBOARD"));
  sys_->advance(sim::Duration::seconds(3));
  payload_.assign(kPastePayload, 'x');
  for (std::size_t i = 0; i < payload_.size(); ++i)
    payload_[i] = static_cast<char>('a' + rng_.next_below(26));
}

void DesktopWorkload::advance(sim::Duration d) {
  Span s(Layer::kScheduler);
  sys_->advance(d);
}

void DesktopWorkload::run(const Limits& limits, OpStats& stats) {
  if (clipboard_ == nullptr) return;  // setup failed; already counted
  const std::uint64_t before = counter(*sys_, "monitor.decisions.granted") +
                               counter(*sys_, "monitor.decisions.denied");
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(limits.seconds * 1e9);
  std::uint64_t n = 0;
  while (n < limits.max_units && wall_ns() - start < budget) {
    const std::int64_t t0 = wall_ns();
    {
      Span root(Layer::kDesktopEpisode);
      episode(stats);
    }
    stats.iteration.add(static_cast<double>(wall_ns() - t0));
    ++n;
  }
  stats.timed_s += static_cast<double>(wall_ns() - start) / 1e9;
  stats.units += n;
  stats.decisions += counter(*sys_, "monitor.decisions.granted") +
                     counter(*sys_, "monitor.decisions.denied") - before;
  stats.live_peak = std::max(stats.live_peak,
                             sys_->kernel().processes().live_count());
  // The alert overlay keeps every alert it showed; the session rotates that
  // log so memory does not grow with the number of episodes run.
  sys_->display().alert_overlay().clear_history();
}

void DesktopWorkload::episode(OpStats& stats) {
  // Every draw is made up front and never depends on an outcome, so the
  // same seed replays the same calls on the unmodified system.
  const int target = static_cast<int>(rng_.next_below(2));
  const int burst = 1 + static_cast<int>(rng_.next_below(20));
  const bool stale = rng_.chance(kStaleShare);
  const auto gap = sim::Duration::millis(
      stale ? rng_.uniform(2'100, 4'000) : rng_.uniform(0, 1'500));
  const int op = static_cast<int>(rng_.next_below(4));
  const bool daemon_turn = rng_.chance(kDaemonShare);
  const int daemon_op = static_cast<int>(rng_.next_below(4));
  const int first_key = static_cast<int>(rng_.next_below(26));

  apps::GuiApp& app = *apps_[target];
  auto& input = sys_->input();
  auto [x, y] = app.click_point();
  stats.input.add(timed(Layer::kX11Input, [&] { input.click(x, y); }));
  oracle_.input(app.pid(), sys_->clock().now());
  for (int k = 1; k < burst; ++k) {
    advance(sim::Duration::millis(1));
    const int code = 30 + (first_key + k) % 26;
    stats.input.add(timed(Layer::kX11Input, [&] { input.key(code); }));
    oracle_.input(app.pid(), sys_->clock().now());
  }
  advance(gap);
  app_op(op, app, stats);
  if (daemon_turn) app_op(daemon_op, *daemon_, stats);
  // The apps' toolkits drain their event queues.
  Span s(Layer::kX11Input);
  for (auto& a : apps_) (void)a->pump_events();
  (void)daemon_->pump_events();
  (void)clipboard_->pump_events();
}

void DesktopWorkload::app_op(int op, apps::GuiApp& app, OpStats& stats) {
  kern::Kernel& k = sys_->kernel();
  const bool expect = oracle_.expect_grant(app.pid(), sys_->clock().now());
  switch (op) {
    case kOpMic:
    case kOpCamera: {
      const std::string& path = op == kOpMic ? core::OverhaulSystem::mic_path()
                                             : core::OverhaulSystem::camera_path();
      util::Result<int> fd = not_run();
      util::Status closed = util::Status::ok();
      stats.open.add(timed(Layer::kVfsOpen, [&] {
        fd = k.sys_open(app.pid(), path, kern::OpenFlags::kRead);
        if (fd.is_ok()) closed = k.sys_close(app.pid(), fd.value());
      }));
      if (oracle_.mediated()) ++stats.alert_eligible;
      if (oracle_.judge(expect, fd.status(), Code::kOverhaulDenied))
        oracle_.ok(closed);
      break;
    }
    case kOpClipboard: {
      util::Status copied = util::Status::ok();
      timed(Layer::kX11Selection,
            [&] { copied = apps::backend_copy(*sys_, app, "PRIMARY"); });
      oracle_.judge(expect, copied, Code::kBadAccess);
      util::Result<std::string> pasted = not_run();
      stats.paste.add(timed(Layer::kX11Selection, [&] {
        pasted =
            apps::backend_paste(*sys_, *clipboard_, app, "CLIPBOARD", payload_);
      }));
      if (oracle_.judge(expect, pasted.status(), Code::kBadAccess))
        oracle_.check(pasted.value() == payload_);
      break;
    }
    case kOpCapture: {
      util::Result<display::Image> image = not_run();
      stats.capture.add(timed(Layer::kX11Screen, [&] {
        image = apps::backend_capture_screen(*sys_, app);
      }));
      if (oracle_.mediated()) ++stats.alert_eligible;
      if (oracle_.judge(expect, image.status(), Code::kBadAccess)) {
        const auto& img = image.value();
        oracle_.check(img.pixels.size() ==
                      static_cast<std::size_t>(img.width) *
                          static_cast<std::size_t>(img.height) &&
                      img.width == sys_->config().screen_width);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace perfbench

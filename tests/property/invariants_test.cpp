// Property tests for the DESIGN.md invariants I1–I6, driven by randomized
// event interleavings (seed-parameterized so failures are reproducible).
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/spyware.h"
#include "core/system.h"
#include "util/rng.h"

namespace overhaul {
namespace {

using util::Decision;
using util::Op;
using util::Rng;

// A randomized session: several GUI apps, one spyware, a user who clicks
// around, apps that access resources at random offsets from the clicks.
class InvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSweep, GrantsAlwaysCorrelatedWithFreshInput) {
  // I1: every GRANT in the audit log has 0 <= age < δ.
  core::OverhaulSystem sys;
  Rng rng(GetParam());

  std::vector<core::OverhaulSystem::AppHandle> gui;
  for (int i = 0; i < 4; ++i) {
    gui.push_back(sys.launch_gui_app("/usr/bin/app" + std::to_string(i),
                                     "app" + std::to_string(i),
                                     display::Rect{i * 150, i * 120, 120, 100})
                      .value());
  }
  auto spy_pid = sys.launch_daemon("/home/user/.spy", "spy").value();
  auto spy_client = sys.xserver().attach_client(spy_pid).value();

  sim::Timestamp last_hw_input = sim::Timestamp::never();

  for (int step = 0; step < 400; ++step) {
    const auto roll = rng.next_below(100);
    if (roll < 30) {
      // The user clicks a random app window.
      const auto& h = gui[rng.next_below(gui.size())];
      (void)sys.xserver().raise_surface(h.client, h.window);
      const auto& r = sys.xserver().surface(h.window)->rect();
      sys.input().click(r.x + 2, r.y + 2);
      last_hw_input = sys.clock().now();
    } else if (roll < 55) {
      // A random app opens a random device.
      const auto& h = gui[rng.next_below(gui.size())];
      const auto& path = rng.chance(0.5) ? core::OverhaulSystem::mic_path()
                                         : core::OverhaulSystem::camera_path();
      auto fd = sys.kernel().sys_open(h.pid, path, kern::OpenFlags::kRead);
      if (fd.is_ok()) (void)sys.kernel().sys_close(h.pid, fd.value());
    } else if (roll < 70) {
      // A random app captures the screen.
      const auto& h = gui[rng.next_below(gui.size())];
      (void)sys.xserver().screen().get_image(h.client, x11::kRootWindow);
    } else if (roll < 85) {
      // The spyware tries a capture or device open.
      if (rng.chance(0.5)) {
        (void)sys.xserver().screen().get_image(spy_client, x11::kRootWindow);
      } else {
        auto fd = sys.kernel().sys_open(spy_pid,
                                        core::OverhaulSystem::mic_path(),
                                        kern::OpenFlags::kRead);
        ASSERT_FALSE(fd.is_ok()) << "spyware must never be granted";
      }
    } else {
      sys.advance(sim::Duration::millis(rng.uniform(10, 3000)));
    }
  }

  // I1 over the audit trail.
  const auto delta = sys.config().delta;
  for (const auto& rec : sys.audit().records()) {
    if (rec.decision == Decision::kGrant) {
      EXPECT_GE(rec.interaction_age_ns, 0) << rec.comm;
      EXPECT_LT(rec.interaction_age_ns, delta.ns) << rec.comm;
    }
  }

  // I3: no task's effective timestamp exceeds the last hardware input.
  sys.kernel().processes().for_each_live([&](kern::TaskStruct& t) {
    EXPECT_LE(t.interaction_ts.ns, last_hw_input.ns) << t.comm;
  });

  // I4: every mic/cam/scr decision produced exactly one alert.
  std::size_t alertable = 0;
  for (const auto& rec : sys.audit().records()) {
    if (rec.op == Op::kMicrophone || rec.op == Op::kCamera ||
        rec.op == Op::kScreenCapture || rec.op == Op::kDeviceOther) {
      ++alertable;
    }
  }
  EXPECT_EQ(sys.xserver().alert_overlay().shown_count(), alertable);
}

TEST_P(InvariantSweep, PropagationNeverManufacturesFreshness) {
  // I3 under heavy IPC: chain random IPC hops between processes; no task
  // may ever end up with a timestamp newer than the freshest hardware input.
  core::OverhaulSystem sys;
  Rng rng(GetParam() ^ 0xABCDEF);
  auto& k = sys.kernel();

  auto gui = sys.launch_gui_app("/usr/bin/hub", "hub").value();
  std::vector<kern::Pid> pids{gui.pid};
  for (int i = 0; i < 5; ++i) {
    pids.push_back(
        k.sys_spawn(1, "/usr/bin/w" + std::to_string(i), "w").value());
  }

  auto mq = k.posix_mqs().open("/bus", true, 64).value();
  auto seg = k.posix_shms().open("/blob", true, kern::kPageSize).value();
  std::vector<std::shared_ptr<kern::ShmMapping>> maps;
  for (auto pid : pids) maps.push_back(k.sys_mmap_shared(pid, seg).value());

  sim::Timestamp last_hw_input = sim::Timestamp::never();
  for (int step = 0; step < 500; ++step) {
    const auto roll = rng.next_below(100);
    const std::size_t i = rng.next_below(pids.size());
    auto* task = k.processes().lookup(pids[i]);
    if (roll < 15) {
      const auto& r = sys.xserver().surface(gui.window)->rect();
      sys.input().click(r.x + 2, r.y + 2);
      last_hw_input = sys.clock().now();
    } else if (roll < 40) {
      (void)mq->send(*task, "m", static_cast<std::uint32_t>(i));
    } else if (roll < 65) {
      (void)mq->receive(*task);
    } else if (roll < 80) {
      maps[i]->write_u64(*task, 8 * i, step);
    } else if (roll < 90) {
      (void)maps[i]->read_u64(*task, 8 * (rng.next_below(pids.size())));
    } else {
      sys.advance(sim::Duration::millis(rng.uniform(1, 800)));
    }
    for (auto pid : pids) {
      EXPECT_LE(k.processes().lookup(pid)->interaction_ts.ns,
                last_hw_input.ns);
    }
  }
}

TEST_P(InvariantSweep, PtyChainGrantIffWithinDelta) {
  // The CLI chain (terminal → pty → shell → tool) must grant exactly when
  // the tool's device open lands within δ of the keystroke — propagation
  // must neither stretch nor shrink the window.
  core::OverhaulSystem sys;
  Rng rng(GetParam() ^ 0x9E7A11);
  auto& k = sys.kernel();

  auto term = sys.launch_gui_app("/usr/bin/xterm", "xterm").value();
  auto pt = k.sys_openpt(term.pid).value();
  auto shell = k.sys_spawn(term.pid, "/bin/bash", "bash").value();
  k.processes().lookup(shell)->interaction_ts = sim::Timestamp::never();
  auto slave_fd = k.sys_open(shell, pt.second, kern::OpenFlags::kReadWrite).value();
  const auto& r = sys.xserver().surface(term.window)->rect();

  for (int trial = 0; trial < 60; ++trial) {
    // The user types; the terminal forwards the line immediately.
    sys.input().click(r.x + 1, r.y + 1);
    const sim::Timestamp typed_at = sys.clock().now();
    ASSERT_TRUE(k.sys_write(term.pid, pt.first, "arecord\n").is_ok());

    // The shell wakes up after a random scheduling delay, spawns the tool,
    // and the tool opens the mic after its own startup delay.
    sys.advance(sim::Duration::millis(rng.uniform(0, 1500)));
    ASSERT_TRUE(k.sys_read(shell, slave_fd, 64).is_ok());
    auto tool = k.sys_spawn(shell, "/usr/bin/arecord", "arecord").value();
    sys.advance(sim::Duration::millis(rng.uniform(0, 1500)));

    const sim::Duration age = sys.clock().now() - typed_at;
    auto fd = k.sys_open(tool, core::OverhaulSystem::mic_path(),
                         kern::OpenFlags::kRead);
    if (age < sys.config().delta) {
      EXPECT_TRUE(fd.is_ok()) << "age " << age.to_seconds();
      if (fd.is_ok()) (void)k.sys_close(tool, fd.value());
    } else {
      EXPECT_FALSE(fd.is_ok()) << "age " << age.to_seconds();
    }
    (void)k.sys_exit(tool);
    sys.advance(sim::Duration::seconds(3));
  }
}

TEST_P(InvariantSweep, BaselineGrantsEverythingDacAllows) {
  // I6: the baseline system (differential oracle) never policy-denies.
  core::OverhaulSystem sys(core::OverhaulConfig::baseline());
  Rng rng(GetParam() ^ 0x5A5A5A);
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  auto daemon = sys.launch_daemon("/home/user/.d", "d").value();
  for (int step = 0; step < 100; ++step) {
    const kern::Pid pid = rng.chance(0.5) ? app.pid : daemon;
    auto fd = sys.kernel().sys_open(pid, core::OverhaulSystem::mic_path(),
                                    kern::OpenFlags::kRead);
    ASSERT_TRUE(fd.is_ok());
    (void)sys.kernel().sys_close(pid, fd.value());
    sys.advance(sim::Duration::millis(rng.uniform(1, 5000)));
  }
}

TEST_P(InvariantSweep, ClipboardDataIntegrityUnderChurn) {
  // Whenever a user-driven paste is GRANTED, the delivered bytes must be
  // exactly what the current selection owner copied — across random owner
  // churn, failed background pastes, and time skips.
  core::OverhaulSystem sys;
  Rng rng(GetParam() ^ 0xC11B0A2D);
  auto& x = sys.xserver();

  struct Participant {
    std::unique_ptr<apps::PasswordManagerApp> app;  // reused as generic owner
  };
  std::vector<std::unique_ptr<apps::PasswordManagerApp>> owners;
  for (int i = 0; i < 3; ++i)
    owners.push_back(apps::PasswordManagerApp::launch(sys).value());
  auto editor = apps::EditorApp::launch(sys).value();

  std::string current_data;
  apps::PasswordManagerApp* current_owner = nullptr;

  const auto click = [&](const apps::GuiApp& app) {
    (void)x.raise_surface(app.client(), app.window());
    auto [cx, cy] = app.click_point();
    sys.input().click(cx, cy);
  };

  int granted_pastes = 0;
  for (int step = 0; step < 200; ++step) {
    const auto roll = rng.next_below(100);
    if (roll < 35) {
      // A random owner copies fresh data (user-driven).
      auto& owner = owners[rng.next_below(owners.size())];
      const std::string data = "payload-" + std::to_string(step);
      owner->store_password("slot", data);
      click(*owner);
      if (owner->copy_password_to_clipboard("slot").is_ok()) {
        current_data = data;
        current_owner = owner.get();
      }
    } else if (roll < 70 && current_owner != nullptr) {
      // User-driven paste: if granted, bytes must match exactly.
      click(*editor);
      auto pasted = editor->paste_from(*current_owner);
      if (pasted.is_ok()) {
        ++granted_pastes;
        ASSERT_EQ(pasted.value(), current_data) << "step " << step;
      }
    } else if (current_owner != nullptr) {
      // Background paste attempt with stale interactions: never yields data.
      sys.advance(sys.config().delta + sim::Duration::millis(1));
      auto sneak = editor->paste_from(*current_owner);
      EXPECT_FALSE(sneak.is_ok());
    }
    sys.advance(sim::Duration::millis(rng.uniform(10, 500)));
  }
  EXPECT_GT(granted_pastes, 10);  // the sweep actually exercised the path
}

TEST_P(InvariantSweep, XProtocolFuzzPreservesInvariants) {
  // I1/I2/I4 under a random X-protocol request stream: window churn,
  // synthetic input, selection/protocol abuse, captures — interleaved with
  // occasional real clicks. Nothing may crash; no grant may appear in the
  // audit log without a fresh interaction; synthetic events never notify.
  core::OverhaulSystem sys;
  Rng rng(GetParam() ^ 0xF0F0F0);
  auto& x = sys.xserver();
  const x11::Atom kClipboard = x11::AtomRegistry::kClipboard;
  const x11::Atom kP = x.atoms().intern("P");

  struct Actor {
    core::OverhaulSystem::AppHandle handle;
    std::vector<x11::WindowId> windows;
  };
  std::vector<Actor> actors;
  for (int i = 0; i < 3; ++i) {
    const std::string n = std::to_string(i);
    Actor a{sys.launch_gui_app("/usr/bin/f" + n, "f" + n,
                               display::Rect{i * 100, i * 80, 120, 100})
                .value(),
            {}};
    a.windows.push_back(a.handle.window);
    actors.push_back(std::move(a));
  }

  for (int step = 0; step < 600; ++step) {
    Actor& actor = actors[rng.next_below(actors.size())];
    const auto cid = actor.handle.client;
    switch (rng.next_below(14)) {
      case 0: {
        auto w = x.open_surface(
            cid, display::Rect{static_cast<int>(rng.next_below(900)),
                           static_cast<int>(rng.next_below(700)), 60, 40});
        if (w.is_ok()) actor.windows.push_back(w.value());
        break;
      }
      case 1:
        (void)x.show_surface(cid,
                           actor.windows[rng.next_below(actor.windows.size())]);
        break;
      case 2:
        (void)x.hide_surface(
            cid, actor.windows[rng.next_below(actor.windows.size())]);
        break;
      case 3:
        (void)x.configure_surface(
            cid, actor.windows[rng.next_below(actor.windows.size())],
            display::Rect{static_cast<int>(rng.next_below(900)),
                      static_cast<int>(rng.next_below(700)),
                      1 + static_cast<int>(rng.next_below(200)),
                      1 + static_cast<int>(rng.next_below(200))});
        break;
      case 4:
        (void)x.xtest_fake_button(cid,
                                  static_cast<int>(rng.next_below(1024)),
                                  static_cast<int>(rng.next_below(768)));
        break;
      case 5: {
        x11::XEvent ev;
        ev.type = static_cast<x11::EventType>(rng.next_below(5));
        ev.selection = kClipboard;
        ev.property = kP;
        (void)x.send_event(
            cid, actors[rng.next_below(actors.size())].handle.window, ev);
        break;
      }
      case 6:
        (void)x.selections().set_selection_owner(
            cid, rng.chance(0.5) ? kClipboard : x11::AtomRegistry::kPrimary,
            actor.windows[rng.next_below(actor.windows.size())]);
        break;
      case 7:
        (void)x.selections().convert_selection(
            cid, kClipboard,
            actor.windows[rng.next_below(actor.windows.size())], kP);
        break;
      case 8:
        (void)x.selections().change_property(
            cid, actors[rng.next_below(actors.size())].handle.window, kP,
            "junk");
        break;
      case 9:
        (void)x.selections().get_property(
            cid, actors[rng.next_below(actors.size())].handle.window, kP);
        break;
      case 10:
        (void)x.screen().get_image(cid, x11::kRootWindow);
        break;
      case 11:
        (void)x.screen().copy_area(
            cid, actors[rng.next_below(actors.size())].handle.window,
            actor.windows[rng.next_below(actor.windows.size())]);
        break;
      case 12:
        sys.input().click(static_cast<int>(rng.next_below(1024)),
                          static_cast<int>(rng.next_below(768)));
        break;
      default:
        sys.advance(sim::Duration::millis(rng.uniform(1, 2500)));
        break;
    }
    if (x11::XClient* c = x.client(cid); c != nullptr && rng.chance(0.3))
      c->drain();
  }

  const auto delta = sys.config().delta;
  for (const auto& rec : sys.audit().records()) {
    if (rec.decision == Decision::kGrant) {
      EXPECT_GE(rec.interaction_age_ns, 0);
      EXPECT_LT(rec.interaction_age_ns, delta.ns);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// Deterministic sweeps over δ: the grant window tracks the knob exactly.
class DeltaSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSweep, GrantWindowMatchesDelta) {
  core::OverhaulConfig cfg;
  cfg.delta = sim::Duration::millis(GetParam());
  core::OverhaulSystem sys(cfg);
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  const auto& r = sys.xserver().surface(app.window)->rect();

  // Just inside the window: granted.
  sys.input().click(r.x + 1, r.y + 1);
  sys.advance(sim::Duration::millis(GetParam()) - sim::Duration::millis(1));
  auto fd = sys.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                  kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());

  // Just outside: denied.
  sys.input().click(r.x + 1, r.y + 1);
  sys.advance(sim::Duration::millis(GetParam()) + sim::Duration::millis(1));
  fd = sys.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                             kern::OpenFlags::kRead);
  EXPECT_FALSE(fd.is_ok());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DeltaSweep,
                         ::testing::Values(250, 500, 1000, 2000, 4000));

// Sweeps over the shm re-arm wait: faults per access track the knob.
class ShmWaitSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShmWaitSweep, FaultRateTracksWait) {
  core::OverhaulConfig cfg;
  cfg.shm_rearm_wait = sim::Duration::millis(GetParam());
  core::OverhaulSystem sys(cfg);
  auto& k = sys.kernel();
  auto pid = sys.launch_daemon("/usr/bin/w", "w").value();
  auto seg = k.posix_shms().open("/s", true, kern::kPageSize).value();
  auto map = k.sys_mmap_shared(pid, seg).value();
  auto* task = k.processes().lookup(pid);

  // One access per 100 ms over 10 s of virtual time.
  for (int i = 0; i < 100; ++i) {
    map->write_u64(*task, 0, i);
    sys.advance(sim::Duration::millis(100));
  }
  const auto faults = k.page_faults().stats().faults;
  // Expected: one fault per re-arm period. 100ms cadence, wait W ms →
  // every ceil(W/100)+... ≈ 10s / max(W,100ms) faults; verify monotone
  // bounds rather than an exact count.
  const double expected = 10'000.0 / std::max(GetParam(), 100);
  EXPECT_GE(faults, static_cast<std::uint64_t>(expected * 0.5));
  EXPECT_LE(faults, static_cast<std::uint64_t>(expected * 2.0) + 1);
}

INSTANTIATE_TEST_SUITE_P(Waits, ShmWaitSweep,
                         ::testing::Values(100, 250, 500, 1000, 2000));

}  // namespace
}  // namespace overhaul

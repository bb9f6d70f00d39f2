// Micro-benchmarks (google-benchmark) for the individual Overhaul
// mechanisms: the per-operation costs behind Table I's aggregate rows.
#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "core/system.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

core::OverhaulConfig quiet(bool enabled, bool grant_always = true) {
  core::OverhaulConfig cfg;
  cfg.enabled = enabled;
  cfg.audit = false;
  cfg.trace = false;  // timed loops; span args would allocate
  if (enabled && grant_always)
    cfg.monitor_mode = kern::MonitorMode::kGrantAlways;
  return cfg;
}

// --- permission monitor ------------------------------------------------------

void BM_MonitorCheck(benchmark::State& state) {
  // Pure decision path (clipboard ops raise no visual alert).
  core::OverhaulSystem sys(quiet(true, false));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  sys.kernel().monitor().record_interaction(app.pid, sys.clock().now());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.kernel().monitor().check_now(app.pid, util::Op::kPaste, ""));
  }
}
BENCHMARK(BM_MonitorCheck);

void BM_MonitorCheckWithAlert(benchmark::State& state) {
  // Device ops additionally request a V_{A,op} alert from the display
  // manager (overlay record per decision).
  core::OverhaulSystem sys(quiet(true, false));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  sys.kernel().monitor().record_interaction(app.pid, sys.clock().now());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.kernel().monitor().check_now(app.pid, util::Op::kMicrophone, ""));
    if (sys.xserver().alert_overlay().shown_count() > 100000) {
      state.PauseTiming();
      sys.xserver().alert_overlay().clear_history();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MonitorCheckWithAlert);

void BM_InteractionNotification(benchmark::State& state) {
  core::OverhaulSystem sys(quiet(true));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  auto& monitor = sys.kernel().monitor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monitor.record_interaction(app.pid, sys.clock().now()));
  }
}
BENCHMARK(BM_InteractionNotification);

// --- open(2) hook --------------------------------------------------------------

void BM_OpenSensitiveDevice(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  auto& k = sys.kernel();
  for (auto _ : state) {
    auto fd = k.sys_open(app.pid, core::OverhaulSystem::mic_path(),
                         kern::OpenFlags::kRead);
    (void)k.sys_close(app.pid, fd.value());
  }
}
BENCHMARK(BM_OpenSensitiveDevice)->Arg(0)->Arg(1);

void BM_OpenRegularFile(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto pid = sys.launch_daemon("/usr/bin/a", "a").value();
  auto& k = sys.kernel();
  (void)k.sys_open(pid, "/tmp/f", kern::OpenFlags::kCreate);
  for (auto _ : state) {
    auto fd = k.sys_open(pid, "/tmp/f", kern::OpenFlags::kRead);
    (void)k.sys_close(pid, fd.value());
  }
}
BENCHMARK(BM_OpenRegularFile)->Arg(0)->Arg(1);

// --- IPC paths -------------------------------------------------------------------

void BM_PipeWriteRead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto& k = sys.kernel();
  auto a = sys.launch_daemon("/usr/bin/a", "a").value();
  auto fds = k.sys_pipe(a).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.sys_write(a, fds.second, "0123456789abcdef"));
    benchmark::DoNotOptimize(k.sys_read(a, fds.first, 16));
  }
}
BENCHMARK(BM_PipeWriteRead)->Arg(0)->Arg(1);

void BM_ShmWriteDisarmedWindow(benchmark::State& state) {
  // The common case: writes inside the 500 ms wait window.
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto& k = sys.kernel();
  auto pid = sys.launch_daemon("/usr/bin/w", "w").value();
  auto seg = k.posix_shms().open("/s", true, 64 * kern::kPageSize).value();
  auto map = k.sys_mmap_shared(pid, seg).value();
  auto* task = k.processes().lookup(pid);
  map->write_u64(*task, 0, 0);  // take the initial fault outside the loop
  std::uint64_t i = 0;
  for (auto _ : state) {
    map->write_u64(*task, (i & 63) * 8, i);
    ++i;
  }
}
BENCHMARK(BM_ShmWriteDisarmedWindow)->Arg(0)->Arg(1);

void BM_ShmFaultPath(benchmark::State& state) {
  // Worst case: every access faults (wait window of zero).
  core::OverhaulConfig cfg = quiet(true);
  cfg.shm_rearm_wait = sim::Duration::nanos(0);
  core::OverhaulSystem sys(cfg);
  auto& k = sys.kernel();
  auto pid = sys.launch_daemon("/usr/bin/w", "w").value();
  auto seg = k.posix_shms().open("/s", true, kern::kPageSize).value();
  auto map = k.sys_mmap_shared(pid, seg).value();
  auto* task = k.processes().lookup(pid);
  std::uint64_t i = 0;
  for (auto _ : state) {
    map->write_u64(*task, 0, i++);
  }
}
BENCHMARK(BM_ShmFaultPath);

// --- display server paths ----------------------------------------------------------

void BM_GetImageRoot(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto app = sys.launch_gui_app("/usr/bin/shot", "shot").value();
  for (auto _ : state) {
    auto img = sys.xserver().screen().get_image(app.client, x11::kRootWindow);
    benchmark::DoNotOptimize(img.value().pixels.data());
  }
}
BENCHMARK(BM_GetImageRoot)->Arg(0)->Arg(1);

void BM_NetlinkQueryRoundTrip(benchmark::State& state) {
  core::OverhaulSystem sys(quiet(true, false));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  sys.kernel().monitor().record_interaction(app.pid, sys.clock().now());
  auto& x = sys.xserver();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x.ask_monitor(app.client, util::Op::kPaste, ""));
  }
}
BENCHMARK(BM_NetlinkQueryRoundTrip);

void BM_HardwareInputDispatch(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  auto& x = sys.xserver();
  for (auto _ : state) {
    sys.input().click(100, 100);
    x.client(app.client)->drain();
  }
}
BENCHMARK(BM_HardwareInputDispatch)->Arg(0)->Arg(1);

void BM_IcccmPaste(benchmark::State& state) {
  // Full Fig. 6 paste round-trip (the Table-I clipboard row's unit).
  const bool enabled = state.range(0) != 0;
  core::OverhaulSystem sys(quiet(enabled));
  auto src = sys.launch_gui_app("/usr/bin/src", "src").value();
  auto dst = sys.launch_gui_app("/usr/bin/dst", "dst",
                                display::Rect{300, 0, 100, 100})
                 .value();
  auto& x = sys.xserver();
  (void)x.selections().set_selection_owner(src.client, "CLIPBOARD",
                                           src.window);
  const std::string payload(4096, 'p');
  for (auto _ : state) {
    (void)x.selections().convert_selection(dst.client, "CLIPBOARD",
                                           dst.window, "P");
    x11::XClient* owner = x.client(src.client);
    while (owner->has_events()) {
      const x11::XEvent ev = owner->next_event();
      if (ev.type != x11::EventType::kSelectionRequest) continue;
      (void)x.selections().change_property(src.client, ev.requestor,
                                           ev.property, payload);
      x11::XEvent notify;
      notify.type = x11::EventType::kSelectionNotify;
      notify.selection = ev.selection;
      notify.property = ev.property;
      (void)x.send_event(src.client, ev.requestor, notify);
    }
    x.client(dst.client)->drain();
    benchmark::DoNotOptimize(
        x.selections().get_property(dst.client, dst.window, "P"));
    (void)x.selections().delete_property(dst.client, dst.window, "P");
  }
}
BENCHMARK(BM_IcccmPaste)->Arg(0)->Arg(1);

void BM_WireEventRoundTrip(benchmark::State& state) {
  x11::AtomRegistry atoms;
  const x11::XEvent ev{.type = x11::EventType::kSelectionRequest,
                       .window = 7,
                       .selection = "CLIPBOARD",
                       .property = "P",
                       .target = "STRING"};
  for (auto _ : state) {
    const auto rec = x11::wire::encode_event(ev, atoms);
    benchmark::DoNotOptimize(x11::wire::decode_event(rec, atoms));
  }
}
BENCHMARK(BM_WireEventRoundTrip);

void BM_Fork(benchmark::State& state) {
  core::OverhaulSystem sys(quiet(true));
  auto& k = sys.kernel();
  for (auto _ : state) {
    auto pid = k.sys_fork(1).value();
    state.PauseTiming();
    (void)k.sys_exit(pid);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Fork);

}  // namespace

// Expanded BENCHMARK_MAIN so the run can finish with a BENCH_micro.json
// metrics snapshot: one instrumented pass over each mediated mechanism on a
// grant-always system, dumping the obs counter values the hot paths bumped.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  core::OverhaulSystem sys(quiet(true, true));
  auto app = sys.launch_gui_app("/usr/bin/a", "a").value();
  auto& k = sys.kernel();
  if (auto fd = k.sys_open(app.pid, core::OverhaulSystem::mic_path(),
                           kern::OpenFlags::kRead);
      fd.is_ok()) {
    (void)k.sys_close(app.pid, fd.value());
  }
  auto fds = k.sys_pipe(app.pid).value();
  (void)k.sys_write(app.pid, fds.second, "x");
  (void)k.sys_read(app.pid, fds.first, 1);
  (void)sys.xserver().screen().get_image(app.client, x11::kRootWindow);

  bench::JsonReport report("micro");
  report.add_raw("metrics", sys.obs().metrics.to_json());
  return report.write("BENCH_micro.json") ? 0 : 1;
}

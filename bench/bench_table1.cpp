// Table I regeneration: performance overhead of Overhaul.
//
// The paper's five rows, each run on the baseline (unmodified kernel + X
// server) and on Overhaul in the Table-I measurement configuration (full
// decision path, grant-always, so no scripted user is needed):
//   Device Access   — open+close the microphone node N times
//   Clipboard       — N ICCCM paste round-trips (paste is the worst case)
//   Screen Capture  — N GetImage captures of the root window
//   Shared Memory   — N 8-byte random writes over a 10,000-page segment
//   Filesystem      — Bonnie++-style create/stat/delete of 102,400 files
//                     (only create is affected; stat/delete not interposed)
//
// Iteration counts are scaled down from the paper (which used 10M opens /
// 100k pastes / 10G writes on real hardware); the *ratio* between the two
// columns is the reproduced quantity, not the absolute seconds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/system.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

// --quick divides the iteration counts and runs a single repetition: the
// numbers are meaningless as measurements but exercise the full pipeline
// (including the JSON report), which is what the check.sh smoke step needs.
int g_scale = 1;

// --backend=wl reruns the display-server-dependent rows (Clipboard, Screen
// Capture) against the Wayland compositor instead of the X server; the
// kernel-side rows are backend-independent and are skipped in that mode.
core::DisplayBackendKind g_backend = core::DisplayBackendKind::kX11;

// --quick rows are single-repetition smoke readings: they are emitted for
// the record but marked non-gating so bench_gate never fails CI on a
// number with no spread behind it.
bool g_gating = true;

// --ci enables MAD-based outlier rejection: a shared CI box takes scheduling
// hiccups that land a single repetition far outside the others, and one such
// ratio can drag the reported interval across the gate threshold. Off for
// full runs (enough repetitions to absorb a hiccup) and for --quick (one
// repetition — nothing to reject from).
bool g_mad = false;

const char* backend_tag() {
  return g_backend == core::DisplayBackendKind::kWayland ? "wl" : "x11";
}

int kDeviceOpens = 100'000;
int kPastes = 20'000;
int kCaptures = 500;
int kShmWrites = 10'000'000;
constexpr int kShmPages = 10'000;
int kBonnieFiles = 102'400;
// Real clipboard payloads are kilobytes (rich text, images); the transfer
// cost is what the permission query is amortized against.
constexpr std::size_t kClipboardPayload = 256 * 1024;

volatile std::uint64_t benchmarkish_sink = 0;

core::OverhaulConfig bench_config(bool enabled) {
  core::OverhaulConfig cfg = enabled ? core::OverhaulConfig::grant_always()
                                     : core::OverhaulConfig::baseline();
  cfg.display_backend = g_backend;
  cfg.audit = false;  // tight loops; the log would dominate memory
  cfg.trace = false;  // spans allocate; counters alone stay on
  return cfg;
}

double time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Untimed in-instance warmup: each workload runs a slice of its own loop
// before the timed section so the freshly constructed system (cold maps,
// unfaulted heap, empty event queues) is not charged to whichever column
// happens to run first. Without this the Clipboard / Screen Capture rows
// can report *negative* overhead purely from construction-order luck.
int warmup_iters(int total) { return std::max(1, total / 100); }

// --- workloads ---------------------------------------------------------------

double run_device_access(bool enabled) {
  core::OverhaulSystem sys(bench_config(enabled));
  auto app = sys.launch_gui_app("/usr/bin/bench", "bench").value();
  auto& k = sys.kernel();
  const auto open_close = [&] {
    auto fd = k.sys_open(app.pid, core::OverhaulSystem::mic_path(),
                         kern::OpenFlags::kRead);
    (void)k.sys_close(app.pid, fd.value());
  };
  for (int i = 0; i < warmup_iters(kDeviceOpens); ++i) open_close();
  return time_seconds([&] {
    for (int i = 0; i < kDeviceOpens; ++i) open_close();
  });
}

double run_clipboard(bool enabled) {
  core::OverhaulSystem sys(bench_config(enabled));
  auto src = sys.launch_gui_app("/usr/bin/src", "src").value();
  auto dst = sys.launch_gui_app("/usr/bin/dst", "dst",
                                display::Rect{300, 0, 200, 200}).value();
  const std::string payload_wl(kClipboardPayload, 'x');
  if (g_backend == core::DisplayBackendKind::kWayland) {
    auto& comp = sys.compositor();
    auto& data = comp.data_devices();
    // Owner established once; the wl_data_offer.receive round-trip (request
    // → source send → take) is the measured op, as convert_selection is on
    // X11. The monitor is in grant-always mode, so every receive pays the
    // full mediation path.
    if (!data.set_selection(src.client, comp.seat().last_minted(),
                            {"text/plain"})
             .is_ok())
      return -1;
    const auto paste_once = [&] {
      (void)data.request_receive(dst.client, "text/plain");
      wl::WlConnection* owner = comp.connection(src.client);
      while (owner->has_events()) {
        const wl::WlEvent ev = owner->next_event();
        if (ev.type != wl::WlEventType::kDataSendRequest) continue;
        (void)data.source_send(src.client, ev.mime, payload_wl);
      }
      (void)data.take_received(dst.client, "text/plain");
    };
    for (int i = 0; i < warmup_iters(kPastes); ++i) paste_once();
    return time_seconds([&] {
      for (int i = 0; i < kPastes; ++i) paste_once();
    });
  }
  auto& x = sys.xserver();
  auto& sel = x.selections();
  // Owner established once; the benchmark measures pastes (the costly op).
  const x11::Atom clipboard = x11::AtomRegistry::kClipboard;
  const x11::Atom property = x.atoms().intern("P");
  if (!sel.set_selection_owner(src.client, clipboard, src.window).is_ok())
    return -1;
  const std::string payload(kClipboardPayload, 'x');
  const auto paste_once = [&] {
    (void)sel.convert_selection(dst.client, clipboard, dst.window, property);
    // Owner answers the SelectionRequest.
    x11::XClient* owner = x.client(src.client);
    while (owner->has_events()) {
      const x11::XEvent ev = owner->next_event();
      if (ev.type != x11::EventType::kSelectionRequest) continue;
      (void)sel.change_property(src.client, ev.requestor, ev.property,
                                payload);
      x11::XEvent notify;
      notify.type = x11::EventType::kSelectionNotify;
      notify.selection = ev.selection;
      notify.property = ev.property;
      (void)x.send_event(src.client, ev.requestor, notify);
    }
    x.client(dst.client)->drain();
    (void)sel.get_property(dst.client, dst.window, property, /*del=*/true);
  };
  for (int i = 0; i < warmup_iters(kPastes); ++i) paste_once();
  return time_seconds([&] {
    for (int i = 0; i < kPastes; ++i) paste_once();
  });
}

double run_screen_capture(bool enabled) {
  core::OverhaulSystem sys(bench_config(enabled));
  auto app = sys.launch_gui_app("/usr/bin/shot", "shot").value();
  if (g_backend == core::DisplayBackendKind::kWayland) {
    auto& shot = sys.compositor().screencopy();
    const auto capture_once = [&] {
      auto img = shot.capture_output(app.client);
      benchmarkish_sink = benchmarkish_sink + img.value().pixels[0];
    };
    for (int i = 0; i < warmup_iters(kCaptures); ++i) capture_once();
    return time_seconds([&] {
      for (int i = 0; i < kCaptures; ++i) capture_once();
    });
  }
  auto& screen = sys.xserver().screen();
  const auto capture_once = [&] {
    auto img = screen.get_image(app.client, x11::kRootWindow);
    benchmarkish_sink = benchmarkish_sink + img.value().pixels[0];
  };
  for (int i = 0; i < warmup_iters(kCaptures); ++i) capture_once();
  return time_seconds([&] {
    for (int i = 0; i < kCaptures; ++i) capture_once();
  });
}

// Shared memory: both columns run against the SAME segment (identical
// memory layout), differing only in the vm_area state — a null engine is
// the unmodified kernel (permissions never revoked), the real engine is
// Overhaul's interposition. Dependency-chained random access makes every
// iteration pay true memory latency, as the paper's random-write workload
// does on hardware.
std::pair<double, double> run_shared_memory_pair() {
  core::OverhaulSystem sys(bench_config(true));
  auto& k = sys.kernel();
  auto pid = sys.launch_daemon("/usr/bin/w", "w").value();
  auto seg = k.posix_shms()
                 .open("/bench", true, kShmPages * kern::kPageSize)
                 .value();
  auto* task = k.processes().lookup(pid);
  kern::ShmMapping base_map(seg, nullptr, pid);
  kern::ShmMapping over_map(seg, &k.page_faults(), pid);

  const std::size_t slots = (kShmPages * kern::kPageSize) / 8;
  {
    util::Rng rng(7);
    for (std::size_t i = 0; i < slots; ++i) {
      base_map.write_u64(*task, i * 8, rng.next_u64());
    }
  }
  const auto chain = [&](kern::ShmMapping& map) {
    return time_seconds([&] {
      std::uint64_t cursor = 12345;
      for (int i = 0; i < kShmWrites; ++i) {
        const std::size_t slot = static_cast<std::size_t>(cursor) % slots;
        cursor =
            map.read_u64(*task, slot * 8) + static_cast<std::uint64_t>(i);
        map.write_u64(*task, slot * 8, cursor);
      }
      benchmarkish_sink = benchmarkish_sink + cursor;
    });
  };
  (void)chain(base_map);  // warm both code paths + the buffer
  (void)chain(over_map);
  // ABBA ordering cancels drift (frequency ramp, cache state) within the
  // pair; take each side's minimum.
  const double base_a = chain(base_map);
  const double over_a = chain(over_map);
  const double over_b = chain(over_map);
  const double base_b = chain(base_map);
  return {std::min(base_a, base_b), std::min(over_a, over_b)};
}

struct BonnieResult {
  double create_s = 0;
  double stat_s = 0;
  double delete_s = 0;
};

BonnieResult run_bonnie(bool enabled) {
  core::OverhaulSystem sys(bench_config(enabled));
  auto& k = sys.kernel();
  auto pid = sys.launch_daemon("/usr/bin/bonnie", "bonnie").value();
  // Warmup pass: populate and drain the namespace once so allocator state
  // is comparable between the two configurations.
  for (int i = 0; i < kBonnieFiles; ++i) {
    (void)k.sys_open(pid, "/tmp/f" + std::to_string(i),
                     kern::OpenFlags::kCreate);
  }
  for (int i = 0; i < kBonnieFiles; ++i) {
    (void)k.sys_unlink(pid, "/tmp/f" + std::to_string(i));
  }
  // Three full create/stat/delete cycles inside the same namespace; report
  // each phase's minimum so per-cycle allocator jitter cancels.
  BonnieResult r{1e99, 1e99, 1e99};
  for (int cycle = 0; cycle < 3; ++cycle) {
    r.create_s = std::min(r.create_s, time_seconds([&] {
      for (int i = 0; i < kBonnieFiles; ++i) {
        auto fd = k.sys_open(pid, "/tmp/f" + std::to_string(i),
                             kern::OpenFlags::kCreate);
        (void)k.sys_close(pid, fd.value());
      }
    }));
    r.stat_s = std::min(r.stat_s, time_seconds([&] {
      for (int i = 0; i < kBonnieFiles; ++i) {
        (void)k.sys_stat("/tmp/f" + std::to_string(i));
      }
    }));
    r.delete_s = std::min(r.delete_s, time_seconds([&] {
      for (int i = 0; i < kBonnieFiles; ++i) {
        (void)k.sys_unlink(pid, "/tmp/f" + std::to_string(i));
      }
    }));
  }
  return r;
}

// Aggregates one row: per-repetition ratios are computed inside a shared
// machine state (back-to-back runs), so their median is far more stable
// than the ratio of aggregate times.
struct Agg {
  double base = 1e99;
  double over = 1e99;
  std::vector<double> ratios;

  void add(double b, double o) {
    base = std::min(base, b);
    over = std::min(over, o);
    ratios.push_back(o / b);
  }

  // The ratios that survive outlier rejection. Under --ci a repetition whose
  // ratio sits more than 3.5 sigma-equivalents (sigma ~ 1.4826 * MAD for a
  // normal population) from the median is treated as a scheduling artifact,
  // not a measurement. The guard rails: fewer than 5 repetitions cannot
  // support a robust scale estimate, and a zero MAD (most ratios identical)
  // would reject every deviation — both cases keep everything.
  [[nodiscard]] std::vector<double> kept() const {
    if (!g_mad || ratios.size() < 5) return ratios;
    std::vector<double> r = ratios;
    std::sort(r.begin(), r.end());
    const double m = r[r.size() / 2];
    std::vector<double> dev;
    dev.reserve(r.size());
    for (double v : r) dev.push_back(std::fabs(v - m));
    std::sort(dev.begin(), dev.end());
    const double mad = dev[dev.size() / 2];
    if (mad == 0.0) return ratios;
    const double cut = 3.5 * 1.4826 * mad;
    std::vector<double> keep;
    keep.reserve(ratios.size());
    for (double v : ratios)
      if (std::fabs(v - m) <= cut) keep.push_back(v);
    return keep;
  }
  [[nodiscard]] std::size_t rejected_outliers() const {
    return ratios.size() - kept().size();
  }
  [[nodiscard]] double ratio_median() const {
    std::vector<double> r = kept();
    std::sort(r.begin(), r.end());
    return r[r.size() / 2];
  }
  [[nodiscard]] double ratio_min() const {
    const std::vector<double> k = kept();
    return *std::min_element(k.begin(), k.end());
  }
  [[nodiscard]] double ratio_max() const {
    const std::vector<double> k = kept();
    return *std::max_element(k.begin(), k.end());
  }
  // Sample variance of the surviving ratios: the spread the interval verdict
  // rests on, in comparable units across rows (ratios are dimensionless).
  [[nodiscard]] double variance() const {
    const std::vector<double> k = kept();
    if (k.size() < 2) return 0.0;
    double mean = 0.0;
    for (double v : k) mean += v;
    mean /= static_cast<double>(k.size());
    double ss = 0.0;
    for (double v : k) ss += (v - mean) * (v - mean);
    return ss / static_cast<double>(k.size() - 1);
  }
  [[nodiscard]] double overhead_pct() const {
    return (ratio_median() - 1.0) * 100.0;
  }
};

void print_row(const char* name, const Agg& agg, double ops) {
  std::printf("%-16s %12.3f s %12.3f s %9.2f %% %10.0f ns/op\n", name,
              agg.base, agg.over, agg.overhead_pct(), agg.base / ops * 1e9);
}

// One Table-I row as a JSON object for the BENCH_table1.json trajectory.
std::string row_json(const char* name, const Agg& agg, double ops) {
  using bench::JsonReport;
  std::string j = "{\"name\":" + obs::json::quote(name);
  j += ",\"backend\":" + obs::json::quote(backend_tag());
  j += ",\"baseline_s\":" + JsonReport::number(agg.base);
  j += ",\"overhaul_s\":" + JsonReport::number(agg.over);
  j += ",\"baseline_ns_per_op\":" + JsonReport::number(agg.base / ops * 1e9);
  j += ",\"overhaul_ns_per_op\":" + JsonReport::number(agg.over / ops * 1e9);
  j += ",\"overhead_pct\":" + JsonReport::number(agg.overhead_pct());
  // Honesty fields: how many repetitions back the median, and the full
  // ratio spread — a row whose [min,max] straddles 1.0 is a noise-floor
  // reading, not a measured overhead, and downstream tooling can tell.
  j += ",\"n\":" + JsonReport::number(static_cast<double>(agg.ratios.size()));
  j += ",\"ratio_median\":" + JsonReport::number(agg.ratio_median());
  j += ",\"ratio_min\":" + JsonReport::number(agg.ratio_min());
  j += ",\"ratio_max\":" + JsonReport::number(agg.ratio_max());
  j += ",\"variance\":" + JsonReport::number(agg.variance());
  j += ",\"rejected_outliers\":" +
       JsonReport::number(static_cast<double>(agg.rejected_outliers()));
  j += ",\"gating\":";
  j += g_gating ? "true" : "false";
  j += "}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool ci = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
    } else if (std::strcmp(argv[i], "--backend=wl") == 0 ||
               std::strcmp(argv[i], "--backend=wayland") == 0) {
      g_backend = core::DisplayBackendKind::kWayland;
    } else if (std::strcmp(argv[i], "--backend=x11") == 0) {
      g_backend = core::DisplayBackendKind::kX11;
    } else {
      std::fprintf(stderr,
                   "usage: bench_table1 [--quick|--ci] [--backend=x11|wl]\n");
      return 2;
    }
  }
  if (quick && ci) {
    std::fprintf(stderr, "bench_table1: --quick and --ci are exclusive\n");
    return 2;
  }
  const bool wl_mode = g_backend == core::DisplayBackendKind::kWayland;
  if (ci) {
    // CI shape: counts small enough for a gating run, but repetitions and
    // the warmup pass kept so the emitted ratio_min/ratio_max interval is a
    // real spread the bench gate can reason about — unlike --quick, whose
    // single repetition yields a degenerate [r, r] interval.
    g_scale = 20;
    g_mad = true;
    kDeviceOpens /= g_scale;
    kPastes /= g_scale;
    kCaptures /= 5;
    kShmWrites /= g_scale;
    kBonnieFiles /= g_scale;
    std::printf("(--ci: iteration counts divided by %d, 5 repetitions + "
                "warmup, MAD outlier rejection — CI gating shape)\n",
                g_scale);
  }
  if (quick) {
    g_gating = false;
    g_scale = 200;
    kDeviceOpens /= g_scale;
    kPastes /= g_scale;
    kCaptures /= 10;  // already small
    kShmWrites /= g_scale;
    kBonnieFiles /= g_scale;
    std::printf("(--quick: iteration counts divided by %d, 1 repetition — "
                "pipeline smoke, not a measurement)\n",
                g_scale);
  }
  std::printf("Table I: performance overhead of OVERHAUL (backend: %s)\n",
              backend_tag());
  std::printf("(monitor in grant-always mode, exercising the full decision "
              "path; counts scaled from the paper)\n\n");
  if (wl_mode)
    std::printf("(--backend=wl: display-server rows only — the kernel-side "
                "rows are backend-independent)\n\n");
  std::printf("%-16s %14s %14s %11s\n", "Benchmarks", "Baseline", "OVERHAUL",
              "Overhead");

  // Per-repetition ratios; each repetition alternates which side goes
  // first, and the row reports the median ratio (robust to load spikes on
  // shared machines) plus each side's best time.
  const int kReps = quick ? 1 : (ci ? 5 : 7);
  Agg dev, clip, scr, shm, fs_create, fs_stat, fs_delete;

  // Discarded warmup pass: grows the heap and ramps the CPU so the first
  // timed repetition is not systematically slower than later ones. Kept in
  // --ci mode: the gate consumes the ratio interval, which warmup tightens.
  if (!quick) {
    if (!wl_mode) (void)run_device_access(false);
    (void)run_clipboard(false);
    (void)run_screen_capture(false);
    if (!wl_mode) (void)run_bonnie(false);
  }

  for (int rep = 0; rep < kReps; ++rep) {
    const bool base_first = rep % 2 == 0;
    const auto run_pair = [&](auto&& fn, Agg& agg) {
      double b = 0, o = 0;
      if (base_first) {
        b = fn(false);
        o = fn(true);
      } else {
        o = fn(true);
        b = fn(false);
      }
      agg.add(b, o);
    };
    run_pair(run_clipboard, clip);
    run_pair(run_screen_capture, scr);
    if (wl_mode) continue;  // kernel-side rows are backend-independent
    run_pair(run_device_access, dev);
    const auto [shm_base, shm_over] = run_shared_memory_pair();
    shm.add(shm_base, shm_over);
    BonnieResult b{}, o{};
    if (base_first) {
      b = run_bonnie(false);
      o = run_bonnie(true);
    } else {
      o = run_bonnie(true);
      b = run_bonnie(false);
    }
    fs_create.add(b.create_s, o.create_s);
    fs_stat.add(b.stat_s, o.stat_s);
    fs_delete.add(b.delete_s, o.delete_s);
  }

  if (!wl_mode) print_row("Device Access", dev, kDeviceOpens);
  print_row("Clipboard", clip, kPastes);
  print_row("Screen Capture", scr, kCaptures);
  if (!wl_mode) {
    print_row("Shared Memory", shm, kShmWrites);
    const double base_files_s = kBonnieFiles / fs_create.base;
    const double over_files_s = kBonnieFiles / fs_create.over;
    std::printf("%-16s %10.0f f/s %10.0f f/s %9.2f %%\n", "Bonnie++ create",
                base_files_s, over_files_s, fs_create.overhead_pct());
    std::printf("%-16s %12.3f s %12.3f s %9s\n", "  (stat, no hook)",
                fs_stat.base, fs_stat.over, "~0");
    std::printf("%-16s %12.3f s %12.3f s %9s\n", "  (delete)",
                fs_delete.base, fs_delete.over, "~0");
  }

  bench::JsonReport report("table1");
  report.add_raw("quick", quick ? "true" : "false");
  report.add_raw("ci", ci ? "true" : "false");
  report.add("reps", kReps);
  report.add_raw("backend", obs::json::quote(backend_tag()));
  std::string rows;
  if (wl_mode) {
    rows = "[" + row_json("Clipboard", clip, kPastes) + "," +
           row_json("Screen Capture", scr, kCaptures) + "]";
  } else {
    rows = "[" + row_json("Device Access", dev, kDeviceOpens) + "," +
           row_json("Clipboard", clip, kPastes) + "," +
           row_json("Screen Capture", scr, kCaptures) + "," +
           row_json("Shared Memory", shm, kShmWrites) + "," +
           row_json("Bonnie++ create", fs_create, kBonnieFiles) + "," +
           row_json("Bonnie++ stat", fs_stat, kBonnieFiles) + "," +
           row_json("Bonnie++ delete", fs_delete, kBonnieFiles) + "]";
  }
  report.add_raw("rows", rows);
  // The wl run keeps its own trajectory file so a following x11 run (or
  // vice versa) does not clobber it.
  (void)report.write(wl_mode ? "BENCH_table1_wl.json" : "BENCH_table1.json");

  if (wl_mode) {
    std::printf("\nNo paper column for Wayland — the reproduced claim is the "
                "cross-backend one: the same\nmediation (and so the same "
                "near-zero overhead shape) holds behind either display "
                "protocol.\n");
    return 0;
  }
  std::printf("\nPaper's measured column for comparison: 2.17%% / 2.96%% / "
              "2.34%% / 0.63%% / 0.11%%\n");
  std::printf("Expected shape: every row within low single digits of zero — "
              "the paper's \"no discernible\noverhead\" claim. On this "
              "substrate the added per-op cost (a timestamp compare + a\n"
              "netlink query / page-state check) sits at or below the "
              "machine's noise floor, so\nmedians may come out slightly "
              "negative; perfbench --trace 1 reports the added ns per\n"
              "operation.\n");
  return 0;
}

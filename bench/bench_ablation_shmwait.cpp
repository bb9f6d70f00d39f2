// Ablation: the shared-memory re-arm wait (page-fault wait list).
//
// §IV-B: after a fault, the vm_area sits on a wait list for 500 ms before
// its permissions are revoked again. Shorter waits mean more faults (cost);
// longer waits mean more IPC sends slip through unstamped (missed
// propagations, which must stay « δ = 2 s to matter). This bench sweeps the
// wait and reports both sides of the trade-off on a producer/consumer
// workload with user clicks sprinkled in.
#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "core/system.h"
#include "util/ascii_chart.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

constexpr int kOps = 200'000;

struct Row {
  double wait_ms;
  std::uint64_t faults;
  std::uint64_t fast;
  std::uint64_t missed;
  double grant_rate;  // how often the consumer could open the camera right
                      // after a click-driven command
};

Row run(double wait_ms) {
  core::OverhaulConfig cfg;
  cfg.shm_rearm_wait = sim::Duration::seconds_f(wait_ms / 1000.0);
  cfg.audit = false;
  cfg.trace = false;
  core::OverhaulSystem sys(cfg);
  sys.kernel().page_faults().set_config(kern::PageFaultConfig{
      cfg.shm_rearm_wait, true, /*track_misses=*/true});

  auto& k = sys.kernel();
  auto gui = sys.launch_gui_app("/usr/bin/prod", "prod").value();
  auto consumer = k.sys_spawn(1, "/usr/bin/cons", "cons").value();
  auto seg = k.posix_shms().open("/ring", true, 16 * kern::kPageSize).value();
  auto pmap = k.sys_mmap_shared(gui.pid, seg).value();
  auto cmap = k.sys_mmap_shared(consumer, seg).value();
  auto* prod_task = k.processes().lookup(gui.pid);
  auto* cons_task = k.processes().lookup(consumer);
  const auto& rect = sys.xserver().surface(gui.window)->rect();

  util::Rng rng(99);
  int commands = 0, granted = 0;
  for (int i = 0; i < kOps; ++i) {
    // Steady producer traffic at ~1k ops/s of virtual time; the consumer
    // polls at its own (randomized) cadence so the two mappings' re-arm
    // schedules are not phase-locked.
    pmap->write_u64(*prod_task, (i % 512) * 8, i);
    if (rng.chance(0.4)) (void)cmap->read_u64(*cons_task, (i % 512) * 8);
    sys.advance(sim::Duration::millis(1));

    // Every ~2000 ops the user clicks and the producer sends a command the
    // consumer acts on (the Fig. 4 pattern). The consumer keeps polling and
    // retrying the device open, as a real renderer's event loop would; the
    // command succeeds iff the stamp makes it across (one fault on each
    // side) before δ expires. This is precisely why the paper requires the
    // wait to be "sufficiently shorter than the 2 second interaction
    // expiration time".
    if (i % 2000 == 1999) {
      sys.input().click(rect.x + 1, rect.y + 1);
      ++commands;
      const sim::Timestamp deadline =
          sys.clock().now() + sim::Duration::seconds(2);
      bool ok = false;
      std::uint64_t tick = 0;
      while (!ok && sys.clock().now() < deadline) {
        // Producer traffic continues (command slot + payload slots).
        pmap->write_u64(*prod_task, 0, 0xC0FFEE);
        pmap->write_u64(*prod_task, ((tick % 511) + 1) * 8, tick);
        (void)cmap->read_u64(*cons_task, 0);
        auto fd = k.sys_open(consumer, core::OverhaulSystem::camera_path(),
                             kern::OpenFlags::kRead);
        if (fd.is_ok()) {
          ok = true;
          (void)k.sys_close(consumer, fd.value());
        }
        sys.advance(sim::Duration::millis(1));
        ++tick;
      }
      granted += ok;
      sys.advance(sim::Duration::millis(rng.uniform(1, 10)));
    }
  }

  const auto& s = k.page_faults().stats();
  return Row{wait_ms, s.faults, s.fast_accesses, s.missed_sends + s.missed_recvs,
             commands > 0 ? static_cast<double>(granted) / commands : 0.0};
}

}  // namespace

int main() {
  std::printf("Ablation: shm re-arm wait vs faults and missed propagations\n");
  std::printf("(producer/consumer at ~1k ops/s with click-driven commands "
              "every ~2 s)\n\n");
  std::printf("%10s %12s %14s %12s %18s\n", "wait", "faults", "fast accesses",
              "missed", "cmd grant rate");

  util::ChartSeries fault_curve{"faults (% of max)", {}, {}};
  util::ChartSeries grant_curve{"command grant rate (%)", {}, {}};
  std::vector<Row> rows;
  for (const double wait_ms : {0.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2000.0}) {
    const Row row = run(wait_ms);
    rows.push_back(row);
    std::printf("%8.0fms %12llu %14llu %12llu %17.1f%%\n", row.wait_ms,
                static_cast<unsigned long long>(row.faults),
                static_cast<unsigned long long>(row.fast),
                static_cast<unsigned long long>(row.missed),
                row.grant_rate * 100.0);
  }
  const double max_faults =
      static_cast<double>(rows.front().faults);  // wait=0 is the maximum
  for (const Row& row : rows) {
    fault_curve.x.push_back(row.wait_ms);
    fault_curve.y.push_back(100.0 * static_cast<double>(row.faults) /
                            max_faults);
    grant_curve.x.push_back(row.wait_ms);
    grant_curve.y.push_back(row.grant_rate * 100.0);
  }
  util::AsciiChart chart(56, 12);
  chart.set_title(
      "\ninterposition cost vs usefulness (x: wait ms; both % of max):");
  chart.add_series(std::move(fault_curve));
  chart.add_series(std::move(grant_curve));
  std::printf("%s", chart.render().c_str());

  std::string row_array;
  for (const Row& row : rows) {
    if (!row_array.empty()) row_array += ",";
    row_array += "{\"wait_ms\":" + bench::JsonReport::number(row.wait_ms) +
                 ",\"faults\":" + std::to_string(row.faults) +
                 ",\"fast_accesses\":" + std::to_string(row.fast) +
                 ",\"missed_propagations\":" + std::to_string(row.missed) +
                 ",\"grant_rate\":" + bench::JsonReport::number(row.grant_rate) +
                 "}";
  }
  bench::JsonReport report("ablation_shmwait");
  report.add("ops", kOps);
  report.add_raw("rows", "[" + row_array + "]");
  (void)report.write("BENCH_ablation_shmwait.json");

  std::printf("\nExpected shape: faults fall sharply with longer waits; "
              "missed propagations grow; the command grant rate stays high "
              "while the wait ≪ δ (the paper's 500 ms choice).\n");
  return 0;
}

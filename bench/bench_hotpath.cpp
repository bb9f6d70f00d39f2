// Mediation fast-path microbenchmark (DESIGN.md §10): ns/op for the four
// operations the zero-allocation work targets —
//   lookup           — pid → TaskStruct* through the slab's paged pid map
//   check            — PermissionMonitor::check, grant path, audit/trace off
//   notify           — send_interaction with coalescing disabled (one kernel
//                      crossing per event)
//   coalesced-notify — send_interaction with coalescing on (10 ms skew, 1 ms
//                      event spacing → ~10 events per crossing)
//
// The headline gate is the notify / coalesced-notify ratio: the coalescing
// stage must make a same-pid notification burst at least ~3× cheaper per
// event than the per-event crossing path. Absolute ns/op are machine-
// dependent; the ratio is the reproduced quantity.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "kern/kernel.h"
#include "kern/netlink.h"
#include "kern/permission_monitor.h"
#include "kern/process_table.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

// --quick shrinks the loops to a pipeline smoke (check.sh --bench); the
// reported numbers are then not measurements.
int g_lookup_iters = 4'000'000;
int g_check_iters = 2'000'000;
int g_notify_iters = 1'000'000;
int g_reps = 5;

volatile std::uint64_t g_sink = 0;

double time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Best-of-reps wall time for `fn`, converted to ns per `ops`.
double best_ns_per_op(int ops, const std::function<void()>& fn) {
  double best = 1e99;
  fn();  // warmup
  for (int rep = 0; rep < g_reps; ++rep) best = std::min(best, time_seconds(fn));
  return best / ops * 1e9;
}

// --- lookup ------------------------------------------------------------------

double run_lookup(double* handle_get_ns) {
  sim::Clock clock;
  kern::ProcessTable table;
  std::vector<kern::Pid> pids;
  std::vector<kern::TaskHandle> handles;
  for (int i = 0; i < 1'023; ++i) pids.push_back(table.fork(1).value());
  for (auto pid : pids) handles.push_back(table.handle_of(pid));

  // Pre-shuffled access order so the branch predictor sees realistic chaos
  // but the timed loop does no RNG work.
  util::Rng rng(42);
  std::vector<std::uint32_t> order(8192);
  for (auto& o : order)
    o = static_cast<std::uint32_t>(rng.next_below(pids.size()));

  const double lookup_ns = best_ns_per_op(g_lookup_iters, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < g_lookup_iters; ++i) {
      const auto* t = table.lookup_live(pids[order[i & 8191]]);
      acc += static_cast<std::uint64_t>(t->pid);
    }
    g_sink = g_sink + acc;
  });
  *handle_get_ns = best_ns_per_op(g_lookup_iters, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < g_lookup_iters; ++i) {
      const auto* t = table.get_live(handles[order[i & 8191]]);
      acc += static_cast<std::uint64_t>(t->pid);
    }
    g_sink = g_sink + acc;
  });
  return lookup_ns;
}

// --- check -------------------------------------------------------------------

double run_check() {
  sim::Clock clock;
  kern::ProcessTable table;
  audit::Sink audit;
  kern::PermissionMonitor monitor(table, clock, audit);
  monitor.set_audit_enabled(false);  // Table-I bench config: no log, no trace
  const kern::Pid app = table.fork(1).value();
  clock.advance(sim::Duration::seconds(1));
  if (!monitor.record_interaction(app, clock.now())) return -1;
  const sim::Timestamp ts = clock.now();

  return best_ns_per_op(g_check_iters, [&] {
    std::uint64_t grants = 0;
    for (int i = 0; i < g_check_iters; ++i) {
      grants += monitor.check(app, util::Op::kMicrophone, ts, "/dev/mic0") ==
                        util::Decision::kGrant
                    ? 1u
                    : 0u;
    }
    g_sink = g_sink + grants;
  });
}

// --- notify / coalesced-notify ----------------------------------------------
//
// Same workload both times: a same-pid burst with 1 ms spacing (mouse-motion
// cadence). With coalescing off every event is a kernel crossing; with the
// 10 ms skew window ~10 events collapse into one.

double run_notify(bool coalesce) {
  sim::Clock clock;
  kern::KernelConfig cfg;
  cfg.audit = false;
  cfg.netlink_coalesce = coalesce;
  cfg.netlink_coalesce_skew = sim::Duration::millis(10);
  kern::Kernel kernel(clock, cfg);
  const kern::Pid xorg =
      kernel.sys_spawn(1, "/usr/lib/xorg/Xorg", "Xorg").value();
  auto channel = kernel.netlink().connect(xorg).value();
  const kern::Pid app = kernel.sys_spawn(1, "/usr/bin/app", "app").value();

  const auto burst = [&] {
    for (int i = 0; i < g_notify_iters; ++i) {
      clock.advance(sim::Duration::millis(1));
      (void)channel->send_interaction({app, clock.now()});
    }
  };
  const double ns = best_ns_per_op(g_notify_iters, burst);
  // Sanity: the coalescing run actually merged (≥80% of events absorbed).
  if (coalesce &&
      channel->stats().interactions_merged * 5 <
          channel->stats().interactions_sent * 4) {
    std::fprintf(stderr, "warning: coalescing merged only %llu of %llu events\n",
                 static_cast<unsigned long long>(
                     channel->stats().interactions_merged),
                 static_cast<unsigned long long>(
                     channel->stats().interactions_sent));
  }
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    g_lookup_iters /= 200;
    g_check_iters /= 200;
    g_notify_iters /= 200;
    g_reps = 1;
    std::printf("(--quick: iteration counts divided by 200, 1 repetition — "
                "pipeline smoke, not a measurement)\n");
  }

  std::printf("Mediation fast path (best of %d reps)\n\n", g_reps);

  double handle_get_ns = 0;
  const double lookup_ns = run_lookup(&handle_get_ns);
  const double check_ns = run_check();
  const double notify_ns = run_notify(false);
  const double coalesced_ns = run_notify(true);
  const double speedup = coalesced_ns > 0 ? notify_ns / coalesced_ns : 0;

  std::printf("%-18s %10.1f ns/op   (pid -> task, 1023-task slab)\n",
              "lookup", lookup_ns);
  std::printf("%-18s %10.1f ns/op   (generation-checked TaskHandle)\n",
              "handle-get", handle_get_ns);
  std::printf("%-18s %10.1f ns/op   (grant path, audit/trace off)\n",
              "check", check_ns);
  std::printf("%-18s %10.1f ns/op   (every event crosses)\n",
              "notify", notify_ns);
  std::printf("%-18s %10.1f ns/op   (10 ms skew, 1 ms spacing)\n",
              "coalesced-notify", coalesced_ns);
  std::printf("\ncoalescing speedup: %.2fx per event (gate: >= 3x)\n", speedup);

  bench::JsonReport report("hotpath");
  report.add_raw("quick", quick ? "true" : "false");
  report.add("reps", g_reps);
  report.add("lookup_ns_per_op", lookup_ns);
  report.add("handle_get_ns_per_op", handle_get_ns);
  report.add("check_ns_per_op", check_ns);
  report.add("notify_ns_per_op", notify_ns);
  report.add("coalesced_notify_ns_per_op", coalesced_ns);
  report.add("coalesce_speedup", speedup);
  (void)report.write("BENCH_hotpath.json");
  return 0;
}

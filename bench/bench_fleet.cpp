// Parallel fleet engine gate (DESIGN.md §15): the same beat-driven fleet
// stepped at 1, 4, 2 and 8 worker lanes.
//
// Two gates, each recorded in BENCH_fleet.json as "pass", "skipped: …" or
// "fail: …" before the bench exits 1 on any failure:
//   determinism — every point produces the identical decision total (the
//                 engine's determinism contract, cheap to hold here);
//   sweep       — on machines with >= 4 hardware lanes, the 4-lane point
//                 clears 2x the serial decisions/sec, as the median over
//                 interleaved 1-lane/4-lane repetitions. Only an optimized,
//                 unsanitized build enforces it.
// Boot cost, fleet decisions/sec, step latency, memory and the rollups are
// perfbench fleet's metrics; the >= 1000 live sessions floor is
// FleetSmoke's 1024-seat case.
//
// Usage: bench_fleet   (writes BENCH_fleet.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "fleet/harness.h"
#include "sim/parallel.h"

using namespace overhaul;

namespace {

// The 4-lane point must clear this multiple of serial decisions/sec, as the
// median over kSweepPairs interleaved repetitions.
constexpr double kSweepFloor = 2.0;
constexpr int kSweepPairs = 5;
constexpr int kSweepShards = 256;
constexpr int kSweepQuanta = 160;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Fresh fleet per thread count, identical deterministic workload: every seat
// runs a self-re-arming beat inside its own scheduler issuing 16 permission
// checks (plus periodic clicks and cross-shard ring traffic) per quantum, so
// stepping the fleet IS the decision workload and decisions/sec measures the
// engine, not the driver loop. The determinism contract doubles as the
// sweep's self-check: every point must produce the identical decision total.
struct SweepBeat {
  fleet::FleetHarness* f = nullptr;
  fleet::ShardId id = 0;
  kern::Pid pid = kern::kNoPid;
  fleet::XShardLink* link = nullptr;
  int side = 0;
  int ticks_left = 0;
  int tick = 0;

  void arm() {
    f->shard(id).system().scheduler().after(sim::Duration::millis(10),
                                            [this] { run(); });
  }

  void run() {
    auto& shard = f->shard(id);
    if (tick % 3 == 0) shard.system().input().click(60, 60);
    for (int c = 0; c < 16; ++c)
      (void)shard.kernel().monitor().check_now(
          pid, c % 2 == 0 ? util::Op::kMicrophone : util::Op::kScreenCapture,
          "sweep");
    if (link != nullptr) {
      if (tick % 2 == 0)
        (void)link->send(side, "beat");
      else
        (void)link->receive(side);
    }
    ++tick;
    if (--ticks_left > 0) arm();
  }
};

struct SweepPoint {
  int threads = 0;
  double wall_s = 0;
  std::uint64_t decisions = 0;
  double decisions_per_sec = 0;
};

SweepPoint run_sweep_point(int threads) {
  fleet::FleetConfig fc;
  fc.shards = kSweepShards;
  fc.mix = fleet::BackendMix::kMixed;
  fc.threads = threads;
  // Pure-throughput posture: no tracing, no audit ring — the sweep compares
  // the engine against itself.
  fc.base.trace = false;
  fc.base.audit = false;
  fleet::FleetHarness f(fc);
  f.boot_fleet();
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id)
    (void)f.shard(id).launch_session("/usr/bin/seat-app", "seat-app");
  f.advance(sim::Duration::millis(600));
  for (fleet::ShardId id = 0; id + 1 < f.shard_count(); id += 2)
    f.connect_xshard(id, f.shard(id).session_pids()[0], id + 1,
                     f.shard(id + 1).session_pids()[0]);
  std::vector<SweepBeat> beats(static_cast<std::size_t>(f.shard_count()));
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    SweepBeat& b = beats[static_cast<std::size_t>(id)];
    b.f = &f;
    b.id = id;
    b.pid = f.shard(id).session_pids()[0];
    if (static_cast<std::size_t>(id / 2) < f.link_count()) {
      b.link = &f.link(static_cast<std::size_t>(id / 2));
      b.side = id % 2;
    }
    b.ticks_left = kSweepQuanta;
    b.arm();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < kSweepQuanta + 2; ++q) f.step();
  SweepPoint p;
  p.threads = f.threads();
  p.wall_s = seconds_since(t0);
  p.decisions = f.aggregate_counter("monitor.decisions.granted") +
                f.aggregate_counter("monitor.decisions.denied");
  p.decisions_per_sec = p.decisions / p.wall_s;
  return p;
}

}  // namespace

int main() {
  // One point is one run of about 0.1 s, so a single host slow phase would
  // decide a single-run verdict: the 4-lane speedup is taken over
  // kSweepPairs interleaved 1-lane/4-lane repetitions (1, 4, 1, 4, ...) and
  // the median is gated. The 2- and 8-lane points run once, for the scaling
  // table.
  const int hw_lanes = sim::ParallelExecutor::hardware_lanes();
  std::printf("fleet sweep: %d shards (mixed) x %d quanta, %d interleaved "
              "1/4-lane pairs, hardware lanes %d\n",
              kSweepShards, kSweepQuanta, kSweepPairs, hw_lanes);
  std::vector<SweepPoint> sweep;  // every point, in run order
  auto run_point = [&](int threads) -> const SweepPoint& {
    sweep.push_back(run_sweep_point(threads));
    const SweepPoint& p = sweep.back();
    std::printf("  threads=%d: %.3f s, %llu decisions, %.0f/s\n", p.threads,
                p.wall_s, static_cast<unsigned long long>(p.decisions),
                p.decisions_per_sec);
    return p;
  };
  std::vector<double> serial_rates;
  std::vector<double> speedups4;
  for (int pair = 0; pair < kSweepPairs; ++pair) {
    const double serial = run_point(1).decisions_per_sec;
    const double four = run_point(4).decisions_per_sec;
    serial_rates.push_back(serial);
    speedups4.push_back(four / serial);
  }
  const double rate2 = run_point(2).decisions_per_sec;
  const double rate8 = run_point(8).decisions_per_sec;
  const double serial_rate = bench::ratio_spread(serial_rates).median;
  const double speedup2 = rate2 / serial_rate;
  const bench::RatioSpread speedup4 = bench::ratio_spread(speedups4);
  const double speedup8 = rate8 / serial_rate;
  std::printf("  4-lane speedup: median %.2fx over %d pairs (%.2f-%.2fx); "
              "2 lanes %.2fx, 8 lanes %.2fx of the median serial rate\n",
              speedup4.median, kSweepPairs, speedup4.min, speedup4.max,
              speedup2, speedup8);

  // Every gate records its verdict and the run carries on, so a failing run
  // still writes BENCH_fleet.json before it exits 1.
  bool failed = false;
  auto fail = [&](std::string* gate, std::string verdict) {
    std::fprintf(stderr, "bench_fleet: FAIL — %s\n", verdict.c_str());
    *gate = "fail: " + std::move(verdict);
    failed = true;
  };
  std::string determinism_gate = "pass";
  for (const SweepPoint& p : sweep) {
    if (p.decisions != sweep.front().decisions) {
      fail(&determinism_gate,
           "sweep point threads=" + std::to_string(p.threads) + " produced " +
               std::to_string(p.decisions) + " decisions, serial produced " +
               std::to_string(sweep.front().decisions));
      break;
    }
  }
  const bool sweep_gating = bench::kOptimizedBuild && hw_lanes >= 4;
  std::string sweep_gate = "pass";
  if (sweep_gating) {
    if (speedup4.median < kSweepFloor) {
      char verdict[96];
      std::snprintf(verdict, sizeof(verdict),
                    "median %.2fx < %.0fx at 4 workers (%.2f-%.2fx)",
                    speedup4.median, kSweepFloor, speedup4.min, speedup4.max);
      fail(&sweep_gate, verdict);
    }
  } else {
    const char* why = !bench::kOptimizedBuild ? "debug or sanitized build"
                                              : "hardware lanes < 4";
    sweep_gate = std::string("skipped: ") + why;
    std::printf("  speedup floor not enforced (%s)\n", why);
  }

  bench::JsonReport report("fleet");
  report.add("hardware_threads", hw_lanes);
  report.add("sweep_shards", kSweepShards);
  report.add("sweep_quanta", kSweepQuanta);
  std::string sweep_json = "[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    if (i > 0) sweep_json += ",";
    sweep_json += "{\"threads\":" + std::to_string(p.threads) +
                  ",\"wall_s\":" + bench::JsonReport::number(p.wall_s) +
                  ",\"decisions\":" + std::to_string(p.decisions) +
                  ",\"decisions_per_sec\":" +
                  bench::JsonReport::number(p.decisions_per_sec) + "}";
  }
  sweep_json += "]";
  report.add_raw("sweep", sweep_json);
  report.add("sweep_pairs", kSweepPairs);
  report.add_raw("sweep_gating", sweep_gating ? "true" : "false");
  report.add("sweep_speedup_2", speedup2);
  report.add("sweep_speedup_4", speedup4.median);
  report.add("sweep_speedup_4_min", speedup4.min);
  report.add("sweep_speedup_4_max", speedup4.max);
  report.add("sweep_speedup_8", speedup8);
  report.add("determinism_gate", determinism_gate);
  report.add("sweep_gate", sweep_gate);
  if (!report.write("BENCH_fleet.json")) return 1;
  return failed ? 1 : 0;
}

// Parallel-vs-serial fleet equivalence property test (DESIGN.md §15).
//
// Claim: FleetHarness::step() on the parallel engine is a pure throughput
// knob — same seed ⇒ bit-identical decision streams, per-actor audit
// streams, converged interaction timestamps, cross-shard channel stamps,
// and metric rollups at ANY worker count. The serial baseline is the same
// code path with threads=1 (the executor runs every lane inline), so what
// is actually being tested is the engine's two determinism mechanisms:
//   1. the strided lane partition (which lane steps which shard is a pure
//      function of the rotation, never of thread timing), and
//   2. the quantum-barrier link deferral (in-quantum cross-shard sends
//      buffer side-locally and drain at the barrier in link-table order,
//      so no shard can observe whether its peer stepped first).
//
// The workload is adversarial for both: every shard runs a self-re-arming
// "beat" event inside its own scheduler — so the mediation work (clicks
// through the display backend, netlink coalescing, permission decisions,
// cross-shard sends/receives) happens *inside* the concurrent stepping
// phase, not from the test's main thread between steps. The boot-storm
// variant adds the boot path: its seats are built on the lanes too, and
// must come out with the same (id, epoch, backend) at any worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/harness.h"
#include "kern/ipc/xshard.h"
#include "util/audit_log.h"
#include "util/rng.h"

namespace overhaul {
namespace {

using fleet::BackendMix;
using fleet::FleetConfig;
using fleet::FleetHarness;
using fleet::ShardId;
using fleet::XShardLink;
using sim::Duration;
using util::Decision;
using util::Op;

constexpr int kShards = 10;
constexpr int kQuanta = 48;
constexpr const char* kDetail = "par-eq";
// Storm spacing: 10 boots over three 10 ms quanta, so each quantum builds a
// batch of several seats and the fleet carries several distinct epochs.
constexpr Duration kStormStagger = Duration::millis(3);

using SeatKey = std::tuple<ShardId, std::int64_t, core::DisplayBackendKind>;

// Everything observable we can cheaply fingerprint, per shard plus rollups.
struct Fingerprint {
  std::vector<std::vector<std::string>> decisions;  // per shard, beat order
  std::vector<std::vector<std::string>> audits;     // per shard, log order
  std::vector<std::int64_t> final_ts;               // per session task
  std::vector<std::int64_t> link_stamps;            // per link, both dirs
  std::vector<std::uint64_t> rollups;
  std::vector<SeatKey> seats;                       // (id, epoch, backend)
};

std::string audit_line(const util::AuditRecord& r) {
  return std::to_string(r.time_ns) + "|" + r.comm + "|" +
         std::string(util::op_name(r.op)) + "|" +
         (r.decision == Decision::kGrant ? "grant" : "deny") + "|" +
         std::to_string(r.interaction_age_ns);
}

// One shard's in-step workload: rearms itself every quantum on the shard's
// own scheduler and draws actions from a per-shard RNG, so the sequence of
// shard-local actions is a function of (seed, shard) only — any divergence
// between runs can come only from the engine, which is the point.
struct Beat {
  FleetHarness* f = nullptr;
  ShardId id = 0;
  kern::Pid pid = kern::kNoPid;
  XShardLink* link = nullptr;  // may be null (odd shard count)
  int side = 0;
  util::Rng rng{1};
  int ticks_left = 0;
  int tick = 0;
  std::vector<std::string>* decisions = nullptr;

  void arm() {
    f->shard(id).system().scheduler().after(Duration::millis(10),
                                            [this] { run(); });
  }

  void run() {
    const std::uint64_t draw = rng.next_below(8);
    auto& shard = f->shard(id);
    switch (draw) {
      case 0:
      case 1:
        shard.system().input().click(40 + static_cast<int>(draw), 40);
        break;
      case 2:
      case 3:
      case 4: {
        const Op op = rng.next_below(2) == 0 ? Op::kMicrophone
                                             : Op::kScreenCapture;
        const Decision d = shard.kernel().monitor().check_now(pid, op, kDetail);
        decisions->push_back(std::to_string(tick) + "|" +
                             std::string(util::op_name(op)) + "|" +
                             (d == Decision::kGrant ? "grant" : "deny"));
        break;
      }
      case 5:
        // Runs on a worker lane; no gtest assertions here. A failed send
        // would desync the decision streams and fail the equivalence check.
        if (link != nullptr) (void)link->send(side, "beat");
        break;
      case 6:
        if (link != nullptr) (void)link->receive(side);
        break;
      default: break;  // idle tick
    }
    ++tick;
    if (--ticks_left > 0) arm();
  }
};

struct Driver {
  FleetConfig fc;
  std::unique_ptr<FleetHarness> f;
  std::vector<kern::Pid> pids;
  std::vector<std::unique_ptr<Beat>> beats;
  std::vector<std::vector<std::string>> decisions;

  // Boots the fleet (all at once, or as a staggered storm), launches one
  // session per seat, wires a link ring (shard 2k ↔ 2k+1), and arms the
  // beats. Stepping is left to the caller.
  Driver(int threads, BackendMix mix, std::uint64_t seed, bool coalesce,
         bool storm = false) {
    fc.shards = kShards;
    fc.mix = mix;
    fc.seed = seed;
    fc.threads = threads;
    fc.base.audit = true;
    fc.base.netlink_coalesce = coalesce;
    f = std::make_unique<FleetHarness>(fc);
    if (storm) {
      f->schedule_boot_storm(kShards, kStormStagger);
      while (f->shard_count() < kShards) f->step();
    } else {
      f->boot_fleet();
    }
    decisions.resize(kShards);
    for (ShardId id = 0; id < f->shard_count(); ++id)
      pids.push_back(
          f->shard(id).launch_session("/usr/bin/seat-app", "seat-app")
              .value().pid);
    // Let every surface cross the visibility threshold (500 ms).
    f->advance(Duration::millis(600));
    for (ShardId id = 0; id + 1 < f->shard_count(); id += 2)
      f->connect_xshard(id, pids[id], id + 1, pids[id + 1]);
    for (ShardId id = 0; id < f->shard_count(); ++id) {
      auto b = std::make_unique<Beat>();
      b->f = f.get();
      b->id = id;
      b->pid = pids[id];
      if (static_cast<std::size_t>(id / 2) < f->link_count()) {
        b->link = &f->link(static_cast<std::size_t>(id / 2));
        b->side = id % 2;
      }
      b->rng = util::Rng(seed * 2654435761u + 97u * id + 1);
      b->ticks_left = kQuanta;
      b->decisions = &decisions[id];
      b->arm();
      beats.push_back(std::move(b));
    }
  }

  Fingerprint fingerprint() {
    Fingerprint fp;
    fp.decisions = decisions;
    for (ShardId id = 0; id < f->shard_count(); ++id) {
      std::vector<std::string> lines;
      for (const auto& r : f->shard(id).kernel().audit().records())
        lines.push_back(audit_line(r));
      fp.audits.push_back(std::move(lines));
      fp.final_ts.push_back(
          f->shard(id).kernel().processes().lookup(pids[id])->interaction_ts.ns);
      fp.seats.emplace_back(f->shard(id).id(), f->shard(id).epoch().ns,
                            f->shard(id).backend());
    }
    for (std::size_t l = 0; l < f->link_count(); ++l) {
      fp.link_stamps.push_back(f->link(l).pair().stamp_from(0).fleet_stamp().ns);
      fp.link_stamps.push_back(f->link(l).pair().stamp_from(1).fleet_stamp().ns);
    }
    for (const char* key :
         {"monitor.decisions.granted", "monitor.decisions.denied",
          "monitor.queries", "monitor.notifications",
          "ipc.xshard.send_stamps", "ipc.xshard.recv_adoptions"})
      fp.rollups.push_back(f->aggregate_counter(key));
    return fp;
  }
};

Fingerprint run_engine(int threads, BackendMix mix, std::uint64_t seed,
                       bool coalesce, bool storm = false) {
  Driver d(threads, mix, seed, coalesce, storm);
  for (int q = 0; q < kQuanta + 2; ++q) d.f->step();
  return d.fingerprint();
}

void expect_identical(const Fingerprint& got, const Fingerprint& want,
                      const std::string& label) {
  ASSERT_EQ(got.decisions.size(), want.decisions.size()) << label;
  for (std::size_t s = 0; s < want.decisions.size(); ++s) {
    ASSERT_EQ(got.decisions[s].size(), want.decisions[s].size())
        << label << " shard " << s << " decision count";
    for (std::size_t i = 0; i < want.decisions[s].size(); ++i)
      EXPECT_EQ(got.decisions[s][i], want.decisions[s][i])
          << label << " shard " << s << " decision " << i;
  }
  ASSERT_EQ(got.audits.size(), want.audits.size()) << label;
  for (std::size_t s = 0; s < want.audits.size(); ++s) {
    ASSERT_EQ(got.audits[s].size(), want.audits[s].size())
        << label << " shard " << s << " audit count";
    for (std::size_t i = 0; i < want.audits[s].size(); ++i)
      EXPECT_EQ(got.audits[s][i], want.audits[s][i])
          << label << " shard " << s << " audit " << i;
  }
  EXPECT_EQ(got.final_ts, want.final_ts) << label;
  EXPECT_EQ(got.link_stamps, want.link_stamps) << label;
  EXPECT_EQ(got.rollups, want.rollups) << label;
  EXPECT_EQ(got.seats, want.seats) << label;
  // A degenerate draw (no decisions at all) would pass vacuously.
  std::size_t total = 0;
  for (const auto& v : want.decisions) total += v.size();
  EXPECT_GT(total, 0u) << label;
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, BackendMix>> {};

// The acceptance property: 1 vs 2 vs 4 vs 8 workers, live cross-shard
// links, in-step traffic — bit-identical everything.
TEST_P(ParallelEquivalence, WorkerCountIsInvisible) {
  const auto [seed, mix] = GetParam();
  const Fingerprint serial = run_engine(1, mix, seed, /*coalesce=*/false);
  for (const int threads : {2, 4, 8}) {
    const Fingerprint parallel = run_engine(threads, mix, seed, false);
    expect_identical(parallel, serial,
                     "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBackends, ParallelEquivalence,
    ::testing::Combine(::testing::Values(7u, 424243u),
                       ::testing::Values(BackendMix::kX11,
                                         BackendMix::kWayland,
                                         BackendMix::kMixed)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             fleet::backend_mix_name(std::get<1>(info.param));
    });

// Same property with netlink coalescing ON: the coalescing buffers are
// shard-local, so batched-notification timing must also replay identically
// under any worker count.
TEST(ParallelEquivalence, CoalescingOnStaysBitIdentical) {
  const Fingerprint serial =
      run_engine(1, BackendMix::kMixed, 1337, /*coalesce=*/true);
  for (const int threads : {2, 4, 8})
    expect_identical(run_engine(threads, BackendMix::kMixed, 1337, true),
                     serial, "coalesce threads=" + std::to_string(threads));
}

// Seats booted by a staggered storm are built on the lanes, a batch per
// quantum: the fleet they make must not depend on the worker count either.
TEST(ParallelEquivalence, BootStormIsBitIdentical) {
  const Fingerprint serial = run_engine(1, BackendMix::kMixed, 31337,
                                        /*coalesce=*/true, /*storm=*/true);
  // The storm really staggered: seat k booted at k·stagger, whatever
  // quantum built it.
  ASSERT_EQ(serial.seats.size(), static_cast<std::size_t>(kShards));
  for (std::size_t k = 0; k < serial.seats.size(); ++k)
    EXPECT_EQ(std::get<1>(serial.seats[k]),
              kStormStagger.ns * static_cast<std::int64_t>(k));
  for (const int threads : {2, 4, 8})
    expect_identical(
        run_engine(threads, BackendMix::kMixed, 31337, true, true), serial,
        "storm threads=" + std::to_string(threads));
}

// Re-running the identical configuration must also be deterministic run-to-
// run (thread scheduling noise must not leak anywhere observable).
TEST(ParallelEquivalence, RepeatedParallelRunsAreIdentical) {
  const Fingerprint a = run_engine(4, BackendMix::kMixed, 99, true);
  const Fingerprint b = run_engine(4, BackendMix::kMixed, 99, true);
  expect_identical(a, b, "repeat");
}

// Ties the engine to the pre-existing serial semantics: when no in-quantum
// cross-shard traffic exists, the engine-driven step() must match the
// manual begin_step()/step_shard() loop the benches time (which never arms
// deferral) — the deferral barrier is semantically invisible without links.
TEST(ParallelEquivalence, EngineMatchesManualSerialLoopWithoutLinks) {
  auto build = [](int threads) {
    FleetConfig fc;
    fc.shards = 6;
    fc.mix = BackendMix::kMixed;
    fc.seed = 5;
    fc.threads = threads;
    fc.base.audit = true;
    auto f = std::make_unique<FleetHarness>(fc);
    f->boot_fleet();
    for (ShardId id = 0; id < f->shard_count(); ++id)
      (void)f->shard(id).launch_session("/usr/bin/seat-app", "app").value();
    f->advance(Duration::millis(600));
    return f;
  };
  std::unique_ptr<FleetHarness> manual = build(1);
  std::unique_ptr<FleetHarness> engine = build(4);
  for (int q = 0; q < 20; ++q) {
    // Interleave main-thread interaction between quanta, as the bench does.
    for (ShardId id = 0; id < manual->shard_count(); id += 2) {
      manual->shard(id).system().input().click(50, 50);
      engine->shard(id).system().input().click(50, 50);
    }
    manual->begin_step();
    for (const ShardId id : manual->step_order()) manual->step_shard(id);
    engine->step();
  }
  for (ShardId id = 0; id < manual->shard_count(); ++id) {
    const auto& ma = manual->shard(id).kernel().audit().records();
    const auto& ea = engine->shard(id).kernel().audit().records();
    ASSERT_EQ(ma.size(), ea.size()) << "shard " << id;
    for (std::size_t i = 0; i < ma.size(); ++i)
      EXPECT_EQ(audit_line(ma[i]), audit_line(ea[i]))
          << "shard " << id << " record " << i;
  }
  EXPECT_EQ(manual->aggregate_counter("monitor.notifications"),
            engine->aggregate_counter("monitor.notifications"));
}

}  // namespace
}  // namespace overhaul

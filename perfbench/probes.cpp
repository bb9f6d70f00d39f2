#include "probes.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/sink.h"
#include "common.h"
#include "core/config.h"
#include "kern/kernel.h"
#include "util/rng.h"

namespace perfbench {

using namespace overhaul;

namespace {

constexpr int kRepetitions = 9;
constexpr std::size_t kCalls = 100'000;
constexpr std::size_t kAuditCapacity = 1024;

// Median over repetitions of the mean wall ns per call of `body(i)`.
template <typename Body>
double time_per_call(Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kRepetitions; ++r) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < kCalls; ++i) body(i);
    reps.push_back(static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(kCalls));
  }
  return median(std::move(reps));
}

// A kernel booted with the workloads' configuration (enforce mode, δ = 2 s,
// coalescing and audit on, tracer off), its audit ring capped per seat.
std::unique_ptr<kern::Kernel> fresh_kernel(sim::Clock& clock) {
  core::OverhaulConfig cfg;
  cfg.trace = false;
  auto k = std::make_unique<kern::Kernel>(clock, cfg.kernel_config());
  k->obs().tracer.set_enabled(false);
  k->audit().set_capacity(kAuditCapacity);
  return k;
}

const util::Op kOps[] = {util::Op::kMicrophone, util::Op::kCamera,
                         util::Op::kPaste, util::Op::kScreenCapture};
const char* const kDetails[] = {"/dev/snd/mic0", "/dev/video0", "CLIPBOARD",
                                "root"};
const char* const kComms[] = {"editor", "browser", "syncd", "stage2"};

volatile std::uint64_t g_sink = 0;

}  // namespace

const char* probe_configuration() {
  return "fresh kern::Kernel, enforce mode, delta 2 s, coalescing on "
         "(skew 10 ms), audit on with a 1024-record ring, tracer off, no "
         "display attached; 100k calls x 9 repetitions, median of the "
         "per-call means; arguments: 64 tasks, half with an input inside "
         "delta, ops mic/camera/paste/capture, input bursts of 1-20 "
         "keys 1 ms apart";
}

ProbeResult run_probes(std::uint64_t seed) {
  ProbeResult out;
  util::Rng rng(seed ^ 0xA5A5A5A5ULL);
  std::uint64_t sink = 0;

  // PermissionMonitor::check with a seeded (pid, op) mix.
  {
    sim::Clock clock;
    auto k = fresh_kernel(clock);
    std::vector<kern::Pid> pids;
    for (int i = 0; i < 64; ++i) {
      auto pid = k->sys_spawn(1, "/usr/bin/app", kComms[i % 4]);
      if (!pid.is_ok()) continue;
      if (i % 2 == 0) (void)k->monitor().record_interaction(pid.value(), clock.now());
      pids.push_back(pid.value());
    }
    std::vector<std::pair<kern::Pid, int>> args(4096);
    for (auto& a : args)
      a = {pids[rng.next_below(pids.size())],
           static_cast<int>(rng.next_below(4))};
    out.monitor_check_ns = time_per_call([&](std::size_t i) {
      const auto& [pid, op] = args[i & 4095];
      sink += static_cast<std::uint64_t>(
          k->monitor().check_now(pid, kOps[op], kDetails[op]));
    });
  }

  // audit::Sink::append_decision with the same string mix.
  {
    audit::Sink audit(kAuditCapacity);
    out.audit_append_ns = time_per_call([&](std::size_t i) {
      const std::size_t j = (i * 7) & 3;
      audit.append_decision(static_cast<std::int64_t>(i), 100 + (i & 63),
                            kComms[i & 3], kOps[j],
                            (i & 1) != 0 ? util::Decision::kGrant
                                         : util::Decision::kDeny,
                            static_cast<std::int64_t>(i & 1023), kDetails[j]);
    });
    sink += audit.total_appended();
  }

  // NetlinkChannel::send_interaction: desktop-shaped bursts to two pids,
  // with coalescing on and off.
  for (const bool coalesce : {true, false}) {
    sim::Clock clock;
    auto k = fresh_kernel(clock);
    auto xorg = k->sys_spawn(1, "/usr/lib/xorg/Xorg", "Xorg");
    auto a = k->sys_spawn(1, "/usr/bin/editor", "editor");
    auto b = k->sys_spawn(1, "/usr/bin/browser", "browser");
    if (!xorg.is_ok() || !a.is_ok() || !b.is_ok()) continue;
    auto channel = k->netlink().connect(xorg.value());
    if (!channel.is_ok()) continue;
    std::shared_ptr<kern::NetlinkChannel> ch = std::move(channel).value();
    if (!coalesce) ch->set_coalescing({false, sim::Duration::millis(10)});
    std::vector<kern::InteractionNotification> notes;
    std::int64_t ts = 0;
    while (notes.size() < 8192) {
      const kern::Pid pid = rng.chance(0.5) ? a.value() : b.value();
      const int burst = 1 + static_cast<int>(rng.next_below(20));
      for (int i = 0; i < burst; ++i) {
        ts += 1'000'000;
        notes.push_back({pid, sim::Timestamp{ts}});
      }
      ts += 2'000'000'000;
    }
    // Timestamps only move forward across repetitions.
    std::int64_t lap = 0;
    std::size_t calls = 0;
    const double ns = time_per_call([&](std::size_t) {
      const std::size_t i = calls++;
      if ((i & 8191) == 0 && i > 0) lap += ts;
      kern::InteractionNotification n = notes[i & 8191];
      n.ts.ns += lap;
      sink += ch->send_interaction(n).is_ok() ? 1 : 0;
    });
    (coalesce ? out.netlink_coalesced_ns : out.netlink_uncoalesced_ns) = ns;
  }

  // ProcessTable::lookup_live over live pids.
  {
    kern::ProcessTable table;
    std::vector<kern::Pid> pids;
    for (int i = 0; i < 256; ++i) {
      auto pid = table.fork(1);
      if (pid.is_ok()) pids.push_back(pid.value());
    }
    std::vector<kern::Pid> args(4096);
    for (auto& p : args) p = pids[rng.next_below(pids.size())];
    out.lookup_live_ns = time_per_call([&](std::size_t i) {
      sink += reinterpret_cast<std::uintptr_t>(table.lookup_live(args[i & 4095]));
    });
  }
  // Keep every probe's result observable.
  g_sink = sink;
  return out;
}

AuditBytes audit_bytes_per_record(std::size_t fill) {
  audit::Sink audit(kAuditCapacity);
  for (std::size_t i = 0; i < fill; ++i) {
    const bool open = i % 2 == 0;
    audit.append_decision(static_cast<std::int64_t>(i) * 10'000'000, 7,
                          "seat-app",
                          open ? util::Op::kMicrophone
                               : util::Op::kScreenCapture,
                          util::Decision::kGrant, 5'000'000,
                          open ? "/dev/snd/mic0" : "beat");
  }
  AuditBytes out;
  if (audit.size() == 0) return out;
  const auto n = static_cast<double>(audit.size());
  out.binary = static_cast<double>(audit.memory_bytes()) / n;
  out.text = static_cast<double>(audit.text_equiv_bytes()) / n;
  return out;
}

}  // namespace perfbench

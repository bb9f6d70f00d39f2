// fleet workload: many seats stepped by the parallel engine, each running a
// beat of input, mediated decisions and cross-shard traffic per quantum.
#include <algorithm>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;
using util::Code;
using util::Op;

namespace {

constexpr int kOpensPerBeat = 8;
constexpr int kChecksPerBeat = 8;
// Rare display work: one beat in kRarePeriod pastes, another captures. At
// 1024 seats that is under one of each per quantum, so compositing stays a
// minority of quantum time (the traced run shows the share).
constexpr std::uint64_t kRarePeriod = 1301;
constexpr std::size_t kAuditCapacity = 1024;  // per seat, as in bench_fleet
constexpr std::size_t kPastePayload = 4096;

}  // namespace

// Per-lane accumulators, one per engine lane: a seat writes slot
// id % lanes, which only the seat's own lane touches within a quantum (see
// FleetWorkload's constructor); the coordinator reads them between quanta,
// after the engine's barrier.
struct alignas(64) LaneAcc {
  Samples input, open, paste, capture;
  std::int64_t busy_ns = 0;
  std::int64_t quantum_busy_ns = 0;
};

// The oracle's view of one link: the freshest stamp sent in each direction,
// in the fleet clock domain.
struct LinkShadow {
  Timestamp dir[2] = {Timestamp::never(), Timestamp::never()};
};

struct FleetWorkload::Seat {
  FleetWorkload* owner = nullptr;
  fleet::ShardId id = 0;
  fleet::Shard* shard = nullptr;
  std::unique_ptr<apps::GuiApp> app;
  std::unique_ptr<apps::GuiApp> clipboard;  // owns CLIPBOARD, serves pastes
  fleet::XShardLink* link = nullptr;
  LinkShadow* link_shadow = nullptr;
  int side = 0;
  bool wayland = false;
  // A listener never gets input of its own: its app's only fresh stamps
  // arrive over the link, so its grants rest on cross-shard P2.
  bool listener = false;
  std::uint64_t tick = 0;
  // Freshest interaction that reached the seat's app, fleet clock domain.
  Timestamp shadow = Timestamp::never();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t alert_eligible = 0;

  void arm() {
    shard->system().scheduler().after(owner->quantum_, [this] { beat(); });
  }
  void beat();
  Timestamp fleet_now() {
    return Timestamp{shard->system().clock().now().ns + shard->epoch().ns};
  }
  bool expect_grant(Timestamp now) const {
    if (shadow.is_never()) return false;
    const sim::Duration age = now - shadow;
    return age.ns >= 0 && age < owner->delta_;
  }
  void judge(bool expect, const util::Status& s, Code deny_code) {
    ++attempted;
    const bool granted = s.is_ok();
    if (expect ? !granted : (granted || s.code() != deny_code)) ++failed;
  }
};

FleetWorkload::FleetWorkload(const FleetOptions& options) : options_(options) {
  fleet::FleetConfig fc;
  fc.shards = options.seats;
  fc.mix = fleet::BackendMix::kMixed;
  fc.seed = options.seed;
  // The engine runs step i of a quantum on lane i % lanes, over the seat ids
  // rotated by a per-quantum offset. When the lane count divides the seat
  // count, all seats with one id % lanes therefore share a lane in every
  // quantum, which is what makes that the seat's accumulator slot.
  fc.threads = std::max(1, options.lanes);
  while (options.seats % fc.threads != 0) --fc.threads;
  fc.base.trace = false;
  fc.base.audit = true;
  quantum_ = fc.step_quantum;
  delta_ = fc.base.delta;
  payload_.assign(kPastePayload, 'p');

  const std::int64_t t0 = wall_ns();
  fleet_ = std::make_unique<fleet::FleetHarness>(fc);
  lanes_ = std::vector<LaneAcc>(static_cast<std::size_t>(fleet_->threads()));
  fleet_->schedule_boot_storm(options.seats, fc.boot_stagger);
  while (fleet_->shard_count() < options.seats) fleet_->step();
  boot_s_ = static_cast<double>(wall_ns() - t0) / 1e9;

  for (fleet::ShardId id = 0; id < fleet_->shard_count(); ++id) {
    auto seat = std::make_unique<Seat>();
    seat->owner = this;
    seat->id = id;
    seat->shard = &fleet_->shard(id);
    seat->wayland =
        seat->shard->backend() == core::DisplayBackendKind::kWayland;
    seat->shard->kernel().audit().set_capacity(kAuditCapacity);
    auto h = seat->shard->launch_session("/usr/bin/seat-app", "seat-app");
    auto c = seat->shard->launch_session("/usr/bin/clipmgr", "clipmgr",
                                         {1000, 740, 16, 16});
    if (!h.is_ok() || !c.is_ok()) {
      ++setup_failures_;
      return;
    }
    seat->app = std::make_unique<apps::GuiApp>(seat->shard->system(),
                                               h.value(), "seat-app");
    seat->clipboard = std::make_unique<apps::GuiApp>(seat->shard->system(),
                                                     c.value(), "clipmgr");
    seats_.push_back(std::move(seat));
  }
  // Let every surface pass the visibility threshold in fleet time.
  fleet_->advance(sim::Duration::millis(600));
  links_.resize(seats_.size() / 2);
  for (std::size_t i = 0; i + 1 < seats_.size(); i += 2) {
    Seat& a = *seats_[i];
    Seat& b = *seats_[i + 1];
    fleet::XShardLink& link =
        fleet_->connect_xshard(a.id, a.app->pid(), b.id, b.app->pid());
    a.link = b.link = &link;
    a.link_shadow = b.link_shadow = &links_[i / 2];
    a.side = 0;
    b.side = 1;
    // Alternate the listening side, so both backends have listeners.
    b.listener = (i / 2) % 2 == 0;
    a.listener = !b.listener;
  }
  // On each seat a clipboard manager takes CLIPBOARD (the user clicked it
  // at login), then the user clicks into the session app, unless the seat
  // listens. Pastes are served by the manager, as on the desktop workload.
  for (auto& seat : seats_) {
    core::OverhaulSystem& sys = seat->shard->system();
    sys.input().click(1008, 748);
    if (!apps::backend_copy(sys, *seat->clipboard, "CLIPBOARD").is_ok())
      ++setup_failures_;
    if (!seat->listener) {
      sys.input().click(60, 60);
      seat->shadow = seat->fleet_now();
    }
    seat->arm();
  }
}

FleetWorkload::~FleetWorkload() = default;

void FleetWorkload::Seat::beat() {
  LaneAcc& acc = owner->lanes_[static_cast<std::size_t>(id) %
                               owner->lanes_.size()];
  const bool timing = owner->options_.lane_timing;
  const std::int64_t b0 = timing ? wall_ns() : 0;
  {
    Span span(Layer::kFleetBeat);
    core::OverhaulSystem& sys = shard->system();
    kern::Kernel& k = sys.kernel();
    const kern::Pid pid = app->pid();
    const Timestamp now = fleet_now();

    if (!listener && tick % 3 == 0) {
      const double ns = timed(wayland ? Layer::kWlInput : Layer::kX11Input,
                              [&] { sys.input().click(60, 60); });
      // The input sample is the X11 click, as on desktop and cli: over both
      // backends, half and half, the p50 would fall between their two modes.
      // Wayland clicks show in wl.input.busy_ms.
      if (!wayland) acc.input.add(ns);
      shadow = now;
      ++attempted;
    }
    const bool expect = expect_grant(now);
    for (int c = 0; c < kOpensPerBeat; ++c) {
      util::Result<int> fd = not_run();
      util::Status closed = util::Status::ok();
      acc.open.add(timed(Layer::kVfsOpen, [&] {
        fd = k.sys_open(pid, core::OverhaulSystem::mic_path(),
                        kern::OpenFlags::kRead);
        if (fd.is_ok()) closed = k.sys_close(pid, fd.value());
      }));
      judge(expect, fd.status(), Code::kOverhaulDenied);
      if (!closed.is_ok()) ++failed;
      ++alert_eligible;
    }
    for (int c = 0; c < kChecksPerBeat; ++c) {
      util::Decision d = util::Decision::kDeny;
      timed(Layer::kMonitor, [&] {
        d = k.monitor().check_now(
            pid, c % 2 == 0 ? Op::kMicrophone : Op::kScreenCapture, "beat");
      });
      judge(expect,
            d == util::Decision::kGrant
                ? util::Status::ok()
                : util::Status(Code::kOverhaulDenied, "denied"),
            Code::kOverhaulDenied);
      ++alert_eligible;
    }
    if (link != nullptr) {
      ++attempted;
      if (tick % 2 == 0) {
        util::Status sent = not_run();
        timed(Layer::kFleetXshard, [&] { sent = link->send(side, "beat"); });
        if (!sent.is_ok()) ++failed;
        link_shadow->dir[side] = std::max(link_shadow->dir[side], shadow);
      } else {
        util::Result<std::string> got = not_run();
        timed(Layer::kFleetXshard, [&] { got = link->receive(side); });
        if (!got.is_ok() || got.value() != "beat") ++failed;
        if (!owner->options_.ignore_link_adoption)
          shadow = std::max(shadow, link_shadow->dir[1 - side]);
      }
    }
    const std::uint64_t slot =
        (tick * owner->seats_.size() + static_cast<std::uint64_t>(id) +
         owner->options_.seed) %
        kRarePeriod;
    if (slot == 0) {
      util::Result<std::string> pasted = not_run();
      acc.paste.add(
          timed(wayland ? Layer::kWlDataDevice : Layer::kX11Selection, [&] {
            pasted = apps::backend_paste(sys, *clipboard, *app, "CLIPBOARD",
                                         owner->payload_);
          }));
      judge(expect_grant(now), pasted.status(), Code::kBadAccess);
      if (pasted.is_ok() && pasted.value() != owner->payload_) ++failed;
    } else if (slot == kRarePeriod / 2) {
      util::Result<display::Image> image = not_run();
      acc.capture.add(
          timed(wayland ? Layer::kWlScreencopy : Layer::kX11Screen,
                [&] { image = apps::backend_capture_screen(sys, *app); }));
      judge(expect_grant(now), image.status(), Code::kBadAccess);
      ++alert_eligible;
    }
  }
  if (timing) {
    const std::int64_t ns = wall_ns() - b0;
    acc.busy_ns += ns;
    acc.quantum_busy_ns += ns;
  }
  ++tick;
  arm();
}

void FleetWorkload::run(const Limits& limits, OpStats& stats) {
  if (setup_failures_ > 0) return;  // counted by tally()
  const std::uint64_t granted0 =
      fleet_->aggregate_counter("monitor.decisions.granted");
  const std::uint64_t denied0 =
      fleet_->aggregate_counter("monitor.decisions.denied");
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(limits.seconds * 1e9);
  std::uint64_t n = 0;
  double stepping_ns = 0;
  while (n < limits.max_units && wall_ns() - start < budget) {
    Span root(Layer::kFleetQuantum);
    for (LaneAcc& l : lanes_) l.quantum_busy_ns = 0;
    const std::int64_t t0 = wall_ns();
    {
      Span s(Layer::kFleetStep);
      fleet_->step();
    }
    const auto ns = static_cast<double>(wall_ns() - t0);
    stats.iteration.add(ns);
    stepping_ns += ns;
    if (options_.lane_timing) {
      std::int64_t slowest = 0;
      for (const LaneAcc& l : lanes_)
        slowest = std::max(slowest, l.quantum_busy_ns);
      coordinator_ms_ += (ns - static_cast<double>(slowest)) / 1e6;
    }
    ++n;
  }
  stats.units += n;
  stats.timed_s += stepping_ns / 1e9;
  const std::int64_t r0 = wall_ns();
  const std::uint64_t granted =
      fleet_->aggregate_counter("monitor.decisions.granted") - granted0;
  const std::uint64_t denied =
      fleet_->aggregate_counter("monitor.decisions.denied") - denied0;
  rollup_ms_ += static_cast<double>(wall_ns() - r0) / 1e6;
  granted_ += granted;
  denied_ += denied;
  stats.decisions += granted + denied;
  // Each seat's alert overlay keeps every alert it ever showed, and every
  // beat raises 16; the session rotates that log so a run's memory stays
  // that of the seats, not of ~1M alerts per second.
  for (const auto& seat : seats_)
    seat->shard->system().display().alert_overlay().clear_history();
  // The lanes are parked between quanta: their samples move to this run.
  for (LaneAcc& l : lanes_) {
    for (auto [into, from] : {std::pair{&stats.input, &l.input},
                              {&stats.open, &l.open},
                              {&stats.paste, &l.paste},
                              {&stats.capture, &l.capture}}) {
      into->append(*from);
      from->clear();
    }
  }
}

void FleetWorkload::tally(FleetStats& stats) const {
  stats.granted += granted_;
  stats.denied += denied_;
  stats.coordinator_ms += coordinator_ms_;
  stats.rollup_ms += rollup_ms_;
  stats.attempted += setup_failures_;
  stats.failed += setup_failures_;
  for (const auto& seat : seats_) {
    stats.attempted += seat->attempted;
    stats.failed += seat->failed;
    stats.alert_eligible += seat->alert_eligible;
  }
  for (const LaneAcc& l : lanes_)
    stats.lane_busy_ms += static_cast<double>(l.busy_ns) / 1e6;
}

}  // namespace perfbench

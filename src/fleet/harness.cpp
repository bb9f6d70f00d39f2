#include "fleet/harness.h"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

namespace overhaul::fleet {

using util::Code;
using util::Status;

namespace {

core::DisplayBackendKind backend_for(BackendMix mix, ShardId id) {
  switch (mix) {
    case BackendMix::kX11: return core::DisplayBackendKind::kX11;
    case BackendMix::kWayland: return core::DisplayBackendKind::kWayland;
    case BackendMix::kMixed:
      return (id % 2 == 0) ? core::DisplayBackendKind::kX11
                           : core::DisplayBackendKind::kWayland;
  }
  return core::DisplayBackendKind::kX11;
}

}  // namespace

FleetHarness::FleetHarness(FleetConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

std::unique_ptr<Shard> FleetHarness::build_shard(ShardId id,
                                                 sim::Duration epoch) const {
  core::OverhaulConfig cfg = config_.base;
  cfg.display_backend = backend_for(config_.mix, id);
  cfg.metrics_prefix = "fleet.shard" + std::to_string(id) + ".";
  return std::make_unique<Shard>(id, epoch, std::move(cfg));
}

OVERHAUL_COORDINATOR_ONLY
ShardId FleetHarness::boot_shard() {
  const ShardId id = shard_count();
  // Epoch = the fleet instant of this boot; the shard's clock starts at 0.
  seats_.push_back(Seat{build_shard(id, sim::Duration{clock_.now().ns}),
                        ShardState::kRunning});
  return id;
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::boot_fleet() {
  pending_.insert(pending_.end(),
                  static_cast<std::size_t>(std::max(config_.shards, 0)),
                  sim::Duration{clock_.now().ns});
  boot_pending();
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::schedule_boot_storm(int count, sim::Duration stagger) {
  const sim::Timestamp now = clock_.now();
  for (int i = 0; i < count; ++i) {
    // The event only records the boot: the seat's epoch is the instant it
    // fires, and begin_step() builds it once the quantum's events have run.
    scheduler_.at(now + sim::Duration{stagger.ns * i}, [this] {
      pending_.push_back(sim::Duration{clock_.now().ns});
    });
  }
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::boot_pending() {
  if (pending_.empty()) return;
  // Take the batch first: if a build throws, the batch is consumed and
  // none of it reaches seats_ (the built seats die with `built`).
  const std::vector<sim::Duration> epochs = std::exchange(pending_, {});
  const ShardId first = shard_count();
  std::vector<Seat> built(epochs.size());
  exec_.run_quantum(epochs.size(), [&](std::size_t i) {
    built[i] = Seat{build_shard(first + static_cast<ShardId>(i), epochs[i]),
                    ShardState::kRunning};
  });
  // Moving a Seat cannot throw, so the append is all or nothing.
  static_assert(std::is_nothrow_move_constructible_v<Seat>);
  seats_.insert(seats_.end(), std::make_move_iterator(built.begin()),
                std::make_move_iterator(built.end()));
}

OVERHAUL_COORDINATOR_ONLY
Status FleetHarness::drain_shard(ShardId id) {
  if (id < 0 || id >= shard_count() || seats_[id].state == ShardState::kEmpty)
    return Status(Code::kNotFound, "no shard " + std::to_string(id));
  Seat& seat = seats_[id];
  if (seat.state == ShardState::kReaped)
    return Status(Code::kNotFound,
                  "shard " + std::to_string(id) + " already reaped");
  seat.shard->drain();
  seat.state = ShardState::kDraining;
  return Status::ok();
}

OVERHAUL_COORDINATOR_ONLY
Status FleetHarness::reap_shard(ShardId id) {
  if (id < 0 || id >= shard_count() || seats_[id].state == ShardState::kEmpty)
    return Status(Code::kNotFound, "no shard " + std::to_string(id));
  Seat& seat = seats_[id];
  if (seat.state == ShardState::kReaped)
    return Status(Code::kNotFound,
                  "shard " + std::to_string(id) + " already reaped");
  if (seat.state != ShardState::kDraining)
    return Status(Code::kBusy,
                  "shard " + std::to_string(id) + " must drain before reap");
  // Sever cross-shard links bound to the dying shard first — their End
  // bindings point into its kernel.
  std::erase_if(links_, [id](const std::unique_ptr<XShardLink>& l) {
    return l->binds(id);
  });
  seat.shard.reset();
  seat.state = ShardState::kReaped;
  return Status::ok();
}

ShardState FleetHarness::shard_state(ShardId id) const {
  if (id < 0 || id >= shard_count()) return ShardState::kEmpty;
  return seats_[id].state;
}

int FleetHarness::live_count() const {
  int n = 0;
  for (const Seat& s : seats_)
    if (s.shard != nullptr) ++n;
  return n;
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::begin_step() {
  scheduler_.run_until(clock_.now() + config_.step_quantum);
  boot_pending();
  ++steps_;
  // Rotated round-robin: ascending ids starting from a seeded offset. The
  // draw happens every step (even over an empty fleet) so the schedule for
  // step k depends only on (seed, k), never on fleet size history.
  const std::uint64_t offset = rng_.next_u64();
  order_.clear();
  const int n = shard_count();
  if (n == 0) return;
  const int start = static_cast<int>(offset % static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    const ShardId id = static_cast<ShardId>((start + i) % n);
    if (seats_[id].shard != nullptr) order_.push_back(id);
  }
}

void FleetHarness::step_shard(ShardId id) {
  if (id < 0 || id >= shard_count()) return;
  Seat& seat = seats_[id];
  if (seat.shard != nullptr) seat.shard->step_to(clock_.now());
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::begin_exchange() {
  for (const std::unique_ptr<XShardLink>& l : links_) l->set_defer(true);
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::end_exchange() {
  // Barrier drain, deterministically ordered: link-table order, side 0 then
  // side 1, each outbox FIFO. The stamps are max-of-monotone so this order
  // cannot change results — it is fixed anyway so replay is bit-exact.
  for (const std::unique_ptr<XShardLink>& l : links_) l->drain_deferred();
  for (const std::unique_ptr<XShardLink>& l : links_) l->set_defer(false);
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::step() {
  begin_step();
  begin_exchange();
  exec_.run_quantum(order_.size(),
                    [this](std::size_t i) { step_shard(order_[i]); });
  end_exchange();
}

OVERHAUL_COORDINATOR_ONLY
void FleetHarness::advance(sim::Duration d) {
  const sim::Timestamp target = clock_.now() + d;
  while (clock_.now() < target) step();
}

OVERHAUL_COORDINATOR_ONLY
XShardLink& FleetHarness::connect_xshard(ShardId a, kern::Pid pid_a, ShardId b,
                                         kern::Pid pid_b) {
  links_.push_back(std::make_unique<XShardLink>(
      XShardLink::EndBinding{seats_[a].shard.get(), pid_a},
      XShardLink::EndBinding{seats_[b].shard.get(), pid_b}));
  return *links_.back();
}

OVERHAUL_COORDINATOR_ONLY
std::uint64_t FleetHarness::aggregate_counter(const std::string& name) {
  std::uint64_t total = 0;
  for (Seat& s : seats_) {
    if (s.shard == nullptr) continue;
    // Each shard registry qualifies the name with its own prefix.
    total += s.shard->kernel().obs().metrics.counter_value(name);
  }
  return total;
}

OVERHAUL_COORDINATOR_ONLY
std::size_t FleetHarness::rss_proxy_bytes() {
  std::size_t total = 0;
  for (Seat& s : seats_) {
    if (s.shard != nullptr) total += s.shard->rss_proxy_bytes();
  }
  return total;
}

}  // namespace overhaul::fleet

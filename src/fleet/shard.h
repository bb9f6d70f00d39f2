// Shard: one seat of the multi-seat fleet (DESIGN.md §14).
//
// A shard is a full per-seat stack — its own ProcessTable, NetlinkHub, VFS,
// PermissionMonitor, and display backend, all inside one core::OverhaulSystem
// — plus the fleet bookkeeping that a single-seat boot never needs: the
// shard's *epoch* (the fleet-clock instant it booted; its local clock starts
// at zero there), the set of GUI sessions launched on the seat, and the
// per-seat resource gauges (`seat.task_slots`, `seat.audit_ring_bytes`,
// `seat.netlink_pending`, `seat.pixel_bytes`) that account() refreshes into
// the shard's own metrics registry under its `fleet.shard<N>.` prefix.
//
// Clock discipline: a shard's local clock only ever advances via
// step_to(fleet_now), which keeps the invariant
//     local_now + epoch == fleet_now
// after every fleet step. That invariant is what makes the cross-shard
// timestamp translation in kern::XShardStamp exact (and is why
// launch_session never settles: surfaces become interaction-eligible by
// fleet time passing, same as every other temporal effect).
#pragma once

#include <string>
#include <vector>

#include "core/system.h"
#include "util/annotations.h"

namespace overhaul::fleet {

using ShardId = int;

// Lifecycle of a fleet slot. kEmpty slots have never booted; kReaped slots
// held a shard whose resources were released back to the harness.
enum class ShardState : std::uint8_t { kEmpty, kRunning, kDraining, kReaped };

class Shard {
 public:
  // `config` must already carry the shard's metrics prefix; `epoch` is the
  // fleet-clock instant of this boot (the local clock starts at zero).
  Shard(ShardId id, sim::Duration epoch, core::OverhaulConfig config);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] ShardId id() const noexcept { return id_; }
  [[nodiscard]] sim::Duration epoch() const noexcept { return epoch_; }
  [[nodiscard]] core::OverhaulSystem& system() noexcept { return system_; }
  [[nodiscard]] kern::Kernel& kernel() noexcept { return system_.kernel(); }
  [[nodiscard]] core::DisplayBackendKind backend() const noexcept {
    return backend_;
  }
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  // This shard's clock reading for a fleet instant (never clamps below 0 —
  // callers only pass fleet times at or after the epoch).
  [[nodiscard]] sim::Timestamp local_time(sim::Timestamp fleet_now) const {
    return sim::Timestamp{fleet_now.ns - epoch_.ns};
  }

  // Advance the local clock (running due events) to `fleet_now - epoch`.
  // Must be called with monotonically non-decreasing fleet instants.
  void step_to(sim::Timestamp fleet_now);

  // Launch one GUI session app on this seat. Never settles (see header
  // comment); the caller advances fleet time past the visibility threshold
  // before interacting. Fails once the shard is draining.
  util::Result<core::OverhaulSystem::AppHandle> launch_session(
      const std::string& exe, const std::string& comm,
      display::Rect rect = {0, 0, 400, 300});

  [[nodiscard]] const std::vector<kern::Pid>& session_pids() const noexcept {
    return sessions_;
  }

  // Begin teardown: exit every session process this shard launched and stop
  // accepting new ones. The harness reaps the shard afterwards.
  void drain();

  // Refresh the per-seat resource gauges from live kernel state.
  void account();

  // Bytes of the shard's dominant growable allocations: the process table
  // (slab chunks and pid pages), the audit ring and the display's pixel
  // storage. The fleet RSS proxy sums this across shards.
  [[nodiscard]] std::size_t rss_proxy_bytes();

 private:
  const ShardId id_;
  const sim::Duration epoch_;
  const core::DisplayBackendKind backend_;
  OVERHAUL_SHARD_LOCAL core::OverhaulSystem system_;
  OVERHAUL_SHARD_LOCAL std::vector<kern::Pid> sessions_;
  OVERHAUL_SHARD_LOCAL bool draining_ = false;

  // Pre-resolved seat gauges (registered under the shard's prefix at boot).
  OVERHAUL_SHARD_LOCAL obs::Gauge* g_task_slots_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Gauge* g_audit_ring_bytes_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Gauge* g_netlink_pending_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Gauge* g_pixel_bytes_ = nullptr;
};

}  // namespace overhaul::fleet

#include "fleet/shard.h"

namespace overhaul::fleet {

using util::Code;
using util::Result;
using util::Status;

Shard::Shard(ShardId id, sim::Duration epoch, core::OverhaulConfig config)
    : id_(id),
      epoch_(epoch),
      backend_(config.display_backend),
      system_(std::move(config)) {
  obs::MetricsRegistry& metrics = system_.obs().metrics;
  g_task_slots_ = metrics.gauge("seat.task_slots");
  g_audit_ring_bytes_ = metrics.gauge("seat.audit_ring_bytes");
  g_netlink_pending_ = metrics.gauge("seat.netlink_pending");
  g_pixel_bytes_ = metrics.gauge("seat.pixel_bytes");
  account();
}

void Shard::step_to(sim::Timestamp fleet_now) {
  system_.scheduler().run_until(local_time(fleet_now));
  account();
}

Result<core::OverhaulSystem::AppHandle> Shard::launch_session(
    const std::string& exe, const std::string& comm, display::Rect rect) {
  if (draining_)
    return Status(Code::kBusy, "shard " + std::to_string(id_) +
                                   " is draining; no new sessions");
  auto app = system_.launch_gui_app(exe, comm, rect, /*settle=*/false);
  if (app.is_ok()) sessions_.push_back(app.value().pid);
  return app;
}

void Shard::drain() {
  if (draining_) return;
  draining_ = true;
  kern::Kernel& k = system_.kernel();
  for (const kern::Pid pid : sessions_) {
    (void)k.sys_exit(pid);
    (void)k.processes().reap(pid);
  }
  // Dead peers' netlink endpoints must not keep buffered notifications.
  k.netlink().drop_dead_channels();
  account();
}

void Shard::account() {
  kern::Kernel& k = system_.kernel();
  g_task_slots_->record(static_cast<std::int64_t>(k.processes().slot_count()));
  g_audit_ring_bytes_->record(
      static_cast<std::int64_t>(k.audit().memory_bytes()));
  g_netlink_pending_->record(
      static_cast<std::int64_t>(k.netlink().pending_coalesced()));
  g_pixel_bytes_->record(
      static_cast<std::int64_t>(system_.display().pixel_bytes()));
}

std::size_t Shard::rss_proxy_bytes() {
  kern::Kernel& k = system_.kernel();
  // Binary ring accounting: 64-byte records + intern payload, not the text
  // log's record-struct-plus-two-heap-strings footprint (DESIGN.md §16).
  return k.processes().slab_bytes() + k.audit().memory_bytes() +
         system_.display().pixel_bytes();
}

}  // namespace overhaul::fleet

// core::DisplayBackend: the display-server core both backends derive from
// (src/core/display_backend.h). This file is the only display-side user of
// the kernel's netlink channel.
#include "core/display_backend.h"

#include <algorithm>
#include <string>
#include <utility>

namespace overhaul::core {

using display::ClientId;
using display::Surface;
using display::SurfaceId;
using kern::Pid;
using util::Code;
using util::Decision;
using util::Result;
using util::Status;

DisplayBackend::DisplayBackend(kern::Kernel& kernel, DisplayConfig config,
                               DisplayBackendKind kind, const char* exe,
                               const char* comm)
    : kernel_(kernel), config_(config), kind_(kind),
      alerts_(kernel.clock()) {
  // The server runs as a root-owned userspace process spawned from init.
  auto pid = kernel_.sys_spawn(1, exe, comm);
  pid_ = pid.is_ok() ? pid.value() : kern::kNoPid;

  if (config_.overhaul_enabled) {
    // §IV-A: "the X server was modified to connect to a secure communication
    // channel upon initialization". The kernel authenticates us by
    // introspecting our exe path.
    auto channel = kernel_.netlink().connect(pid_);
    if (channel.is_ok()) {
      channel_ = std::move(channel).value();
      channel_->set_alert_handler([this](const kern::AlertRequest& alert) {
        alerts_.show(alert.pid, alert.comm, alert.op, alert.decision);
      });
    }
  }

  const std::string prefix =
      kind == DisplayBackendKind::kX11 ? "x11.input." : "wl.input.";
  auto& metrics = kernel_.obs().metrics;
  c_hw_events_ = metrics.counter(prefix + "hardware_events");
  c_notifications_ = metrics.counter(prefix + "notifications");
  c_clickjack_ = metrics.counter(prefix + "clickjack_suppressed");
}

DisplayBackend::~DisplayBackend() = default;

// --- clients ----------------------------------------------------------------

Result<ClientId> DisplayBackend::attach_client(Pid pid) {
  if (kernel_.processes().lookup_live(pid) == nullptr)
    return Status(Code::kNotFound, "connect: no such process");
  const ClientId id = next_client_++;
  clients_.emplace(id, make_client(id, pid));
  return id;
}

Status DisplayBackend::disconnect_client(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return Status(Code::kNotFound, "no such client");
  std::vector<SurfaceId> owned;
  for (const auto& [sid, surf] : surfaces_) {
    if (surf->owner() == id) owned.push_back(sid);
  }
  for (SurfaceId sid : owned) {
    std::erase(stacking_, sid);
    on_surface_change(*surfaces_.at(sid), SurfaceChange::kDestroyed);
    surfaces_.erase(sid);
  }
  on_client_detached(id);
  clients_.erase(it);
  return Status::ok();
}

display::Client* DisplayBackend::client_of_pid(Pid pid) {
  for (const auto& [id, c] : clients_) {
    if (c->pid() == pid) return c.get();
  }
  return nullptr;
}

// --- surfaces ---------------------------------------------------------------

SurfaceId DisplayBackend::create_root_surface() {
  const SurfaceId id = next_surface_++;
  auto root = std::make_unique<Surface>(
      id, ClientId{0},
      display::Rect{0, 0, config_.screen_width, config_.screen_height});
  root->map(clock().now());
  surfaces_.emplace(id, std::move(root));
  return id;
}

Result<SurfaceId> DisplayBackend::open_surface(ClientId client_id,
                                               display::Rect rect) {
  if (client(client_id) == nullptr)
    return Status(Code::kNotFound, "open_surface: no such client");
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "open_surface: empty geometry");
  const SurfaceId id = next_surface_++;
  surfaces_.emplace(id, std::make_unique<Surface>(id, client_id, rect));
  return id;
}

Result<Surface*> DisplayBackend::owned_surface(ClientId client_id,
                                               SurfaceId id) {
  Surface* surf = surface(id);
  if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
  if (surf->owner() != client_id)
    return Status(Code::kBadAccess, "not the owner");
  return surf;
}

Status DisplayBackend::show_surface(ClientId client_id, SurfaceId id) {
  auto surf = owned_surface(client_id, id);
  if (!surf.is_ok()) return surf.status();
  surf.value()->map(clock().now());
  std::erase(stacking_, id);
  stacking_.push_back(id);  // newly mapped surfaces land on top
  on_surface_change(*surf.value(), SurfaceChange::kShown);
  return Status::ok();
}

Status DisplayBackend::hide_surface(ClientId client_id, SurfaceId id) {
  auto surf = owned_surface(client_id, id);
  if (!surf.is_ok()) return surf.status();
  surf.value()->unmap();
  std::erase(stacking_, id);
  on_surface_change(*surf.value(), SurfaceChange::kHidden);
  return Status::ok();
}

Status DisplayBackend::raise_surface(ClientId client_id, SurfaceId id) {
  auto surf = owned_surface(client_id, id);
  if (!surf.is_ok()) return surf.status();
  if (!surf.value()->mapped())
    return Status(Code::kInvalidArgument, "raise: surface not mapped");
  std::erase(stacking_, id);
  stacking_.push_back(id);
  return Status::ok();
}

Status DisplayBackend::configure_surface(ClientId client_id, SurfaceId id,
                                         display::Rect rect) {
  auto found = owned_surface(client_id, id);
  if (!found.is_ok()) return found.status();
  if (rect.width <= 0 || rect.height <= 0)
    return Status(Code::kInvalidArgument, "empty geometry");
  Surface& surf = *found.value();
  const sim::Timestamp now = clock().now();
  if (rect.width != surf.rect().width || rect.height != surf.rect().height)
    surf.resize(rect.width, rect.height, now);
  surf.move_to(rect.x, rect.y, now);
  on_surface_change(surf, SurfaceChange::kConfigured);
  return Status::ok();
}

Status DisplayBackend::set_input_only(ClientId client_id, SurfaceId id,
                                      bool on) {
  auto surf = owned_surface(client_id, id);
  if (!surf.is_ok()) return surf.status();
  surf.value()->set_input_only(on);
  return Status::ok();
}

Result<display::Rect> DisplayBackend::surface_rect(SurfaceId id) {
  const Surface* surf = surface(id);
  if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
  return surf->rect();
}

Surface* DisplayBackend::surface_at(int x, int y) {
  // Top of stack first.
  for (auto it = stacking_.rbegin(); it != stacking_.rend(); ++it) {
    Surface* surf = surface(*it);
    if (surf != nullptr && surf->mapped() && surf->rect().contains(x, y))
      return surf;
  }
  return nullptr;
}

std::size_t DisplayBackend::pixel_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [id, surf] : surfaces_)
    total += std::as_const(*surf).pixels().bytes();
  return total;
}

// --- trusted input path -----------------------------------------------------

bool DisplayBackend::passes_visibility_check(const Surface& surf) const {
  // §IV-A: "OVERHAUL only generates interaction notifications if the X
  // client receiving the event has a valid mapped window that has stayed
  // visible above a predefined time threshold." Input-only surfaces are
  // never *visible*, no matter how long they have been mapped.
  if (!surf.mapped() || surf.input_only()) return false;
  return surf.visible_for(kernel_.clock().now()) >=
         config_.visibility_threshold;
}

bool DisplayBackend::report_input(InputKind kind, bool hardware,
                                  const Surface& surf, Pid receiver) {
  InputTraceEntry trace;
  trace.time = kernel_.clock().now();
  trace.kind = kind;
  trace.synthetic = !hardware;
  trace.receiver_pid = receiver;
  trace.surface = surf.id();

  bool counted = false;
  if (hardware) {
    ++input_stats_.hardware_events;
    c_hw_events_->add();
    if (config_.overhaul_enabled && channel_ != nullptr) {
      if (passes_visibility_check(surf)) {
        counted = true;
        kern::InteractionNotification note;
        note.pid = receiver;
        note.ts = trace.time;
        if (channel_->send_interaction(note).is_ok()) {
          ++input_stats_.interaction_notifications;
          c_notifications_->add();
          trace.produced_notification = true;
        }
      } else {
        ++input_stats_.clickjack_suppressed;
        c_clickjack_->add();
        trace.clickjack_suppressed = true;
      }
    }
  }

  input_trace_.push_back(trace);
  if (input_trace_.size() > kInputTraceCapacity) input_trace_.pop_front();
  return counted;
}

void DisplayBackend::grant_gadget(const Surface& surf, util::Op op) {
  const display::Client* owner = client(surf.owner());
  if (owner == nullptr || channel_ == nullptr) return;
  kern::AcgGrantNotification grant;
  grant.pid = owner->pid();
  grant.op = op;
  grant.ts = kernel_.clock().now();
  (void)channel_->send_acg_grant(grant);
}

// --- Overhaul liaison -------------------------------------------------------

Decision DisplayBackend::ask_monitor(ClientId client_id, util::Op op,
                                     std::string_view detail) {
  if (!config_.overhaul_enabled) return Decision::kGrant;  // unmodified server
  const display::Client* c = client(client_id);
  if (c == nullptr || channel_ == nullptr) return Decision::kDeny;

  kern::PermissionQuery query;
  query.pid = c->pid();
  query.op = op;
  query.op_time = kernel_.clock().now();
  query.detail.assign(detail.data(), detail.size());
  auto reply = channel_->query_permission(query);
  return reply.is_ok() ? reply.value().decision : Decision::kDeny;
}

}  // namespace overhaul::core

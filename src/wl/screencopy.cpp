#include "wl/screencopy.h"

#include <string>
#include <vector>

#include "wl/compositor.h"

namespace overhaul::wl {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

Status WlScreencopyManager::authorize_capture(ClientId client,
                                              SurfaceId surface_id) {
  if (comp_.connection(client) == nullptr)
    return Status(Code::kNotFound, "screencopy: no such client");
  if (surface_id != kNoSurface) {
    display::Surface* surf = comp_.surface(surface_id);
    if (surf == nullptr) return Status(Code::kBadWindow, "no such surface");
    // Capturing your own surface is always fine — the same-owner fast path.
    if (surf->owner() == client) {
      ++stats_.own_surface_captures;
      return Status::ok();
    }
  }

  if (!comp_.overhaul_enabled()) return Status::ok();  // unmodified compositor

  const Decision d = comp_.ask_monitor(
      client, Op::kScreenCapture,
      surface_id == kNoSurface ? "output"
                               : "surface " + std::to_string(surface_id));
  if (d == Decision::kDeny) {
    ++stats_.captures_denied;
    if (c_denied_ != nullptr) c_denied_->add();
    return Status(Code::kBadAccess, "screen capture not preceded by input");
  }
  ++stats_.captures_granted;
  if (c_granted_ != nullptr) c_granted_->add();
  return Status::ok();
}

display::Image WlScreencopyManager::composite_output() const {
  std::vector<display::Layer> layers;
  for (SurfaceId sid : comp_.stacking_order()) {
    const display::Surface* surf = comp_.surface(sid);
    if (surf == nullptr || !surf->mapped() || surf->input_only()) continue;
    layers.push_back({surf->rect().x, surf->rect().y, &surf->pixels()});
  }
  // The output has no background surface: bare zero under the stack.
  const display::PixelBuffer bare(comp_.config().screen_width,
                                  comp_.config().screen_height);
  return display::composite(bare, layers);
}

Result<display::Image> WlScreencopyManager::capture_output(ClientId client) {
  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    WlConnection* c = comp_.connection(client);
    span = tracer.span("Screencopy::capture_output", "wl",
                       c != nullptr ? c->pid() : 0);
  }
  if (auto s = authorize_capture(client, kNoSurface); !s.is_ok()) return s;
  return composite_output();
}

Result<display::Image> WlScreencopyManager::capture_surface(
    ClientId client, SurfaceId surface_id) {
  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    WlConnection* c = comp_.connection(client);
    span = tracer.span("Screencopy::capture_surface", "wl",
                       c != nullptr ? c->pid() : 0);
    span.arg("surface", std::to_string(surface_id));
  }
  if (auto s = authorize_capture(client, surface_id); !s.is_ok()) return s;

  const display::Surface* surf = comp_.surface(surface_id);
  return surf->pixels().to_image();
}

}  // namespace overhaul::wl

#include "wl/compositor.h"

#include <utility>

namespace overhaul::wl {

WlCompositor::WlCompositor(kern::Kernel& kernel, core::DisplayConfig config)
    : DisplayBackend(kernel, config, core::DisplayBackendKind::kWayland,
                     kCompositorExe, "wayland-compositor"),
      seat_(kernel.clock()) {
  auto& metrics = obs().metrics;
  c_forged_serials_ = metrics.counter("wl.input.forged_serials");
  data_.attach_obs(metrics.counter("wl.clipboard.copies_granted"),
                   metrics.counter("wl.clipboard.copies_denied"),
                   metrics.counter("wl.clipboard.pastes_granted"),
                   metrics.counter("wl.clipboard.pastes_denied"));
  screencopy_.attach_obs(metrics.counter("wl.screencopy.captures_granted"),
                         metrics.counter("wl.screencopy.captures_denied"));
}

// --- surface lifecycle --------------------------------------------------------

void WlCompositor::on_surface_change(const display::Surface& surf,
                                     SurfaceChange change) {
  switch (change) {
    case SurfaceChange::kShown:
    case SurfaceChange::kConfigured:
      // xdg_surface.configure acknowledging the map or the new geometry.
      if (WlConnection* owner = connection(surf.owner()); owner != nullptr) {
        WlEvent ev;
        ev.type = WlEventType::kSurfaceConfigure;
        ev.surface = surf.id();
        owner->enqueue(std::move(ev));
      }
      break;
    case SurfaceChange::kHidden:
      break;
    case SurfaceChange::kDestroyed:
      if (seat_.keyboard_focus() == surf.id())
        seat_.set_keyboard_focus(kNoSurface);
      if (seat_.pointer_focus() == surf.id())
        seat_.set_pointer_focus(kNoSurface);
      break;
  }
}

void WlCompositor::on_client_detached(ClientId id) {
  data_.on_client_disconnected(id);
}

// --- trusted input path -------------------------------------------------------

void WlCompositor::deliver_input(WlEvent event, display::Surface& surf) {
  WlConnection* owner = connection(surf.owner());
  if (owner == nullptr) return;

  // Every delivered hardware event mints exactly one serial — this is the
  // only call site of mint_serial, which is what makes serial provenance
  // meaningful: a serial not on this path was never a user action.
  const Serial serial = seat_.mint_serial(owner->id(), surf.id());
  event.serial = serial;
  owner->note_input_serial(serial);

  (void)report_input(event.type == WlEventType::kKeyboardKey
                         ? InputKind::kKey
                         : InputKind::kButton,
                     /*hardware=*/true, surf, owner->pid());

  event.surface = surf.id();
  owner->enqueue(std::move(event));
}

void WlCompositor::hardware_button_press(int x, int y, int button) {
  display::Surface* surf = surface_at(x, y);
  if (surf == nullptr) return;  // click on the bare output: no client target
  seat_.set_pointer_focus(surf->id());
  const bool focus_changed = seat_.keyboard_focus() != surf->id();
  seat_.set_keyboard_focus(surf->id());

  WlEvent ev;
  ev.type = WlEventType::kPointerButton;
  ev.button = button;
  ev.x = x;
  ev.y = y;
  deliver_input(std::move(ev), *surf);

  if (focus_changed) {
    // Keyboard enter carries the current selection offer (Wayland re-sends
    // the data_offer on every keyboard-focus change).
    if (WlConnection* owner = connection(surf->owner()); owner != nullptr) {
      WlEvent enter;
      enter.type = WlEventType::kKeyboardEnter;
      enter.surface = surf->id();
      owner->enqueue(std::move(enter));
    }
    data_.advertise_to_focus();
  }
}

void WlCompositor::hardware_key_press(int keycode) {
  display::Surface* surf = surface(seat_.keyboard_focus());
  if (surf == nullptr || !surf->mapped()) return;
  WlEvent ev;
  ev.type = WlEventType::kKeyboardKey;
  ev.keycode = keycode;
  deliver_input(std::move(ev), *surf);
}

bool WlCompositor::validate_serial(ClientId client, Serial serial) {
  if (seat_.serial_valid(client, serial)) return true;
  ++stats_.forged_serials;
  c_forged_serials_->add();
  return false;
}

}  // namespace overhaul::wl

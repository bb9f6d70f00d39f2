#include "x11/server.h"

namespace overhaul::x11 {

using util::Code;
using util::Status;

XServer::XServer(kern::Kernel& kernel, core::DisplayConfig config)
    : DisplayBackend(kernel, config, core::DisplayBackendKind::kX11, kXorgExe,
                     "Xorg") {
  // The root window covers the screen.
  create_root_surface();

  auto& metrics = obs().metrics;
  c_synthetic_events_ = metrics.counter("x11.input.synthetic_events");
  c_send_event_drops_ = metrics.counter("x11.send_event.drops");
}

// --- window lifecycle -------------------------------------------------------

void XServer::on_surface_change(const display::Surface& win,
                                SurfaceChange change) {
  switch (change) {
    case SurfaceChange::kShown:
      emit_structure_notify(win.id(), EventType::kMapNotify);
      break;
    case SurfaceChange::kHidden:
      emit_structure_notify(win.id(), EventType::kUnmapNotify);
      break;
    case SurfaceChange::kConfigured:
      emit_structure_notify(win.id(), EventType::kConfigureNotify);
      break;
    case SurfaceChange::kDestroyed:
      if (focus_ == win.id()) focus_ = kNoWindow;
      if (keyboard_grab_ == win.id()) keyboard_grab_ = kNoWindow;
      if (pointer_grab_ == win.id()) pointer_grab_ = kNoWindow;
      acg_.unregister_window(win.id());
      break;
  }
}

void XServer::on_client_detached(display::ClientId id) {
  std::erase_if(event_masks_,
                [&](const auto& entry) { return entry.first.first == id; });
  selections_.on_client_disconnected(id);
}

Status XServer::select_input(ClientId client_id, WindowId window_id,
                             std::uint32_t mask) {
  if (client(client_id) == nullptr)
    return Status(Code::kNotFound, "select_input: no such client");
  if (surface(window_id) == nullptr)
    return Status(Code::kBadWindow, "select_input: no such window");
  if (mask == kNoEventMask) {
    event_masks_.erase({client_id, window_id});
  } else {
    event_masks_[{client_id, window_id}] = mask;
  }
  return Status::ok();
}

std::vector<ClientId> XServer::clients_selecting(WindowId window_id,
                                                 std::uint32_t mask) const {
  std::vector<ClientId> out;
  for (const auto& [key, bits] : event_masks_) {
    if (key.second == window_id && (bits & mask) != 0) out.push_back(key.first);
  }
  return out;
}

void XServer::emit_structure_notify(WindowId window_id, EventType type) {
  for (ClientId cid : clients_selecting(window_id, kStructureNotifyMask)) {
    if (XClient* c = client(cid); c != nullptr) {
      XEvent ev;
      ev.type = type;
      ev.provenance = Provenance::kHardware;  // server-originated
      ev.window = window_id;
      c->enqueue(ev);
    }
  }
}

// --- input path ---------------------------------------------------------------------

bool XServer::deliver_input(XEvent event, display::Surface& win) {
  XClient* owner = client(win.owner());
  if (owner == nullptr) return false;

  const bool hardware = event.provenance == Provenance::kHardware;
  if (!hardware) {
    ++stats_.synthetic_events;
    c_synthetic_events_->add();
  }
  bool counted = false;
  if (event.type == EventType::kKeyPress ||
      event.type == EventType::kButtonPress) {
    counted = report_input(event.type == EventType::kKeyPress
                               ? InputKind::kKey
                               : InputKind::kButton,
                           hardware, win, owner->pid());
  }

  event.window = win.id();
  owner->enqueue(event);
  return counted;
}

Status XServer::grab_keyboard(ClientId client_id, WindowId window_id) {
  display::Surface* win = surface(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "grab: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "grab: not the owner");
  if (keyboard_grab_ != kNoWindow)
    return Status(Code::kBusy, "grab: keyboard already grabbed");
  keyboard_grab_ = window_id;
  return Status::ok();
}

Status XServer::ungrab_keyboard(ClientId client_id) {
  display::Surface* win = surface(keyboard_grab_);
  if (win == nullptr || win->owner() != client_id)
    return Status(Code::kBadAccess, "ungrab: not the grabber");
  keyboard_grab_ = kNoWindow;
  return Status::ok();
}

Status XServer::grab_pointer(ClientId client_id, WindowId window_id) {
  display::Surface* win = surface(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "grab: no such window");
  if (win->owner() != client_id)
    return Status(Code::kBadAccess, "grab: not the owner");
  if (pointer_grab_ != kNoWindow)
    return Status(Code::kBusy, "grab: pointer already grabbed");
  pointer_grab_ = window_id;
  return Status::ok();
}

Status XServer::ungrab_pointer(ClientId client_id) {
  display::Surface* win = surface(pointer_grab_);
  if (win == nullptr || win->owner() != client_id)
    return Status(Code::kBadAccess, "ungrab: not the grabber");
  pointer_grab_ = kNoWindow;
  return Status::ok();
}

void XServer::hardware_button_press(int x, int y, int button) {
  // The prompt strip sits above every window; clicks there never reach
  // clients. Only this path carries hardware provenance.
  if (prompts_.handle_click(x, y, /*hardware_provenance=*/true)) return;
  // An active pointer grab intercepts the click regardless of position.
  display::Surface* win =
      pointer_grab_ != kNoWindow ? surface(pointer_grab_) : nullptr;
  if (win == nullptr) {
    win = surface_at(x, y);
    if (win == nullptr) return;  // click on bare root: no client target
    focus_ = win->id();
  }
  XEvent ev;
  ev.type = EventType::kButtonPress;
  ev.provenance = Provenance::kHardware;
  ev.button = button;
  ev.x = x;
  ev.y = y;
  if (!deliver_input(ev, *win)) return;
  // ACG comparison mode: a counted click inside a registered gadget also
  // produces an op-specific grant notification.
  if (const auto op = acg_.gadget_hit(*win, x, y); op.has_value())
    grant_gadget(*win, *op);
}

void XServer::hardware_key_press(int keycode) {
  // An active keyboard grab steals keystrokes from the focus window.
  display::Surface* win = keyboard_grab_ != kNoWindow
                              ? surface(keyboard_grab_)
                              : surface(focus_);
  if (win == nullptr) return;
  if (keyboard_grab_ == kNoWindow && !win->mapped()) return;
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.provenance = Provenance::kHardware;
  ev.keycode = keycode;
  deliver_input(ev, *win);
}

Status XServer::send_event(ClientId sender, WindowId target, XEvent event) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "send_event: no such client");
  display::Surface* win = surface(target);
  if (win == nullptr) return Status(Code::kBadWindow, "send_event: bad window");

  // Wire format: events sent with SendEvent carry the synthetic flag — this
  // is core X11 behaviour, not an Overhaul addition.
  event.provenance = Provenance::kSendEvent;
  event.synthetic_flag = true;

  // Overhaul's clipboard-protocol policing (§IV-A): block SendEvents "that
  // can break the copy & paste protocol".
  if (overhaul_enabled()) {
    if (!selections_.admit_send_event(sender, target, event)) {
      ++stats_.blocked_send_events;
      c_send_event_drops_->add();
      if (obs().tracer.enabled()) {
        XClient* s = client(sender);
        obs().tracer.instant(
            "SendEvent::blocked", "x11", s != nullptr ? s->pid() : 0,
            {{"type_code", std::to_string(static_cast<int>(event.type))}});
      }
      return Status(Code::kBadAccess, "send_event: out-of-protocol event");
    }
  }

  // The event transits the wire: the synthetic flag is carried by the wire
  // format itself (top bit of the event-code byte), so the receiver's view
  // cannot be laundered by the sender.
  auto decoded = wire::decode_event(wire::encode_event(event), atoms_);
  if (!decoded.is_ok()) return decoded.status();

  deliver_input(decoded.value(), *win);
  return Status::ok();
}

Status XServer::xtest_fake_button(ClientId sender, int x, int y) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "xtest: no such client");
  // A fake click aimed at a pending prompt's buttons is a forgery attempt:
  // swallowed and counted, never able to decide the prompt.
  if (prompts_.handle_click(x, y, /*hardware_provenance=*/false))
    return Status::ok();
  display::Surface* win = surface_at(x, y);
  if (win == nullptr) return Status::ok();
  focus_ = win->id();
  XEvent ev;
  ev.type = EventType::kButtonPress;
  // No wire flag — but the modified server tags the provenance (§IV-A), so
  // deliver_input will not treat it as an interaction.
  ev.provenance = Provenance::kXTest;
  ev.button = 1;
  ev.x = x;
  ev.y = y;
  deliver_input(ev, *win);
  return Status::ok();
}

Status XServer::xtest_fake_key(ClientId sender, int keycode) {
  if (client(sender) == nullptr)
    return Status(Code::kNotFound, "xtest: no such client");
  display::Surface* win = surface(focus_);
  if (win == nullptr || !win->mapped()) return Status::ok();
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.provenance = Provenance::kXTest;
  ev.keycode = keycode;
  deliver_input(ev, *win);
  return Status::ok();
}

}  // namespace overhaul::x11

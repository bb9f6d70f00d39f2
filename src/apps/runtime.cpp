#include "apps/runtime.h"

#include <sstream>

namespace overhaul::apps {

using util::Code;
using util::Result;
using util::Status;

std::vector<x11::XEvent> GuiApp::pump_events() {
  std::vector<x11::XEvent> events;
  x11::XClient* c = sys_.xserver().client(handle_.client);
  if (c == nullptr) return events;
  while (c->has_events()) events.push_back(c->next_event());
  return events;
}

std::vector<wl::WlEvent> GuiApp::pump_wl_events() {
  std::vector<wl::WlEvent> events;
  wl::WlConnection* c = sys_.compositor().connection(handle_.client);
  if (c == nullptr) return events;
  while (c->has_events()) events.push_back(c->next_event());
  return events;
}

Status icccm_copy(x11::XServer& server, const GuiApp& source,
                  const std::string& selection) {
  const x11::Atom selection_atom = server.atoms().intern(selection);
  // Step 2: SetSelection — mediated by Overhaul (copy permission).
  auto s = server.selections().set_selection_owner(
      source.client(), selection_atom, source.window());
  if (!s.is_ok()) return s;
  // Steps 3–4: confirm ownership.
  auto owner = server.selections().selection_owner(selection_atom);
  if (!owner.has_value() || owner->client != source.client())
    return Status(Code::kBadAtom, "ownership confirmation failed");
  return Status::ok();
}

Result<std::string> icccm_paste(x11::XServer& server, GuiApp& source,
                                GuiApp& target, const std::string& selection,
                                const std::string& data_from_owner) {
  auto& sel = server.selections();
  const x11::Atom selection_atom = server.atoms().intern(selection);
  const x11::Atom property = server.atoms().intern("OVERHAUL_PASTE");

  // Step 6: ConvertSelection — mediated by Overhaul (paste permission).
  if (auto s = sel.convert_selection(target.client(), selection_atom,
                                     target.window(), property);
      !s.is_ok())
    return s;

  // Step 7: the owner receives SelectionRequest in its event queue.
  bool owner_saw_request = false;
  for (const auto& ev : source.pump_events()) {
    if (ev.type == x11::EventType::kSelectionRequest &&
        ev.selection == selection_atom) {
      owner_saw_request = true;
      // Step 8: owner publishes the data on the requestor's window property.
      if (auto s = sel.change_property(source.client(), ev.requestor,
                                       ev.property, data_from_owner);
          !s.is_ok())
        return s;
      // Step 9: owner asks the server to notify the requestor (SendEvent).
      x11::XEvent notify;
      notify.type = x11::EventType::kSelectionNotify;
      notify.selection = selection_atom;
      notify.property = ev.property;
      if (auto s = server.send_event(source.client(), ev.requestor, notify);
          !s.is_ok())
        return s;
    }
  }
  if (!owner_saw_request)
    return Status(Code::kBadRequest, "owner never saw SelectionRequest");

  // Step 10: the requestor receives SelectionNotify.
  bool notified = false;
  for (const auto& ev : target.pump_events()) {
    if (ev.type == x11::EventType::kSelectionNotify &&
        ev.selection == selection_atom)
      notified = true;
  }
  if (!notified)
    return Status(Code::kBadRequest, "requestor never saw SelectionNotify");

  // Steps 11–13: fetch the data and delete the property in one GetProperty.
  return sel.get_property(target.client(), target.window(), property,
                          /*del=*/true);
}

Result<std::string> icccm_paste_incr(x11::XServer& server, GuiApp& source,
                                     GuiApp& target,
                                     const std::string& selection,
                                     const std::string& data_from_owner,
                                     std::size_t chunk_size) {
  auto& sel = server.selections();
  const x11::Atom selection_atom = server.atoms().intern(selection);
  const x11::Atom property = server.atoms().intern("OVERHAUL_PASTE_INCR");

  // Step 6: ConvertSelection (mediated).
  if (auto s = sel.convert_selection(target.client(), selection_atom,
                                     target.window(), property);
      !s.is_ok())
    return s;

  // Owner sees the request and announces INCR instead of a one-shot write.
  bool announced = false;
  for (const auto& ev : source.pump_events()) {
    if (ev.type != x11::EventType::kSelectionRequest ||
        ev.selection != selection_atom)
      continue;
    if (auto s = sel.begin_incr(source.client(), ev.requestor, ev.property,
                                data_from_owner.size());
        !s.is_ok())
      return s;
    x11::XEvent notify;
    notify.type = x11::EventType::kSelectionNotify;
    notify.selection = selection_atom;
    notify.property = ev.property;
    if (auto s = server.send_event(source.client(), ev.requestor, notify);
        !s.is_ok())
      return s;
    announced = true;
  }
  if (!announced)
    return util::Status(util::Code::kBadRequest, "owner never saw the request");

  // Requestor: read the INCR marker and delete it to start the stream.
  auto marker = sel.get_property(target.client(), target.window(), property,
                                 /*del=*/true);
  if (!marker.is_ok()) return marker.status();
  if (marker.value().rfind("INCR:", 0) != 0)
    return util::Status(util::Code::kBadRequest, "expected INCR marker");

  // Stream: owner writes a chunk; requestor consumes and deletes; an empty
  // chunk terminates.
  std::string assembled;
  std::size_t offset = 0;
  for (;;) {
    const std::size_t n =
        std::min(chunk_size, data_from_owner.size() - offset);
    if (auto s = sel.send_incr_chunk(source.client(), target.window(),
                                     property,
                                     data_from_owner.substr(offset, n));
        !s.is_ok())
      return s;
    offset += n;
    auto chunk = sel.get_property(target.client(), target.window(), property,
                                  /*del=*/true);
    if (!chunk.is_ok()) return chunk.status();
    assembled += chunk.value();
    if (n == 0) break;  // the empty terminator has been consumed
  }
  return assembled;
}


Result<std::string> icccm_paste_negotiated(
    x11::XServer& server, GuiApp& source, GuiApp& target,
    const std::string& selection, const std::string& data_from_owner,
    const std::vector<std::string>& owner_formats) {
  auto& sel = server.selections();
  const x11::Atom targets_prop = server.atoms().intern("OVERHAUL_TARGETS");

  // Phase 1: TARGETS (metadata; exempt from input correlation).
  if (auto s = sel.convert_selection(target.client(),
                                     server.atoms().intern(selection),
                                     target.window(), targets_prop,
                                     x11::AtomRegistry::kTargets);
      !s.is_ok())
    return s;
  for (const auto& ev : source.pump_events()) {
    if (ev.type != x11::EventType::kSelectionRequest ||
        ev.target != x11::AtomRegistry::kTargets)
      continue;
    std::string list;
    for (const auto& f : owner_formats) {
      if (!list.empty()) list += ",";
      list += f;
    }
    if (auto s = sel.change_property(source.client(), ev.requestor,
                                     ev.property, list);
        !s.is_ok())
      return s;
  }
  auto offered = sel.get_property(target.client(), target.window(),
                                  targets_prop, /*del=*/true);
  if (!offered.is_ok()) return offered.status();

  // Pick a format: prefer UTF8_STRING, fall back to STRING.
  std::string chosen;
  std::stringstream ss(offered.value());
  std::string format;
  while (std::getline(ss, format, ',')) {
    if (format == "UTF8_STRING") {
      chosen = format;
      break;
    }
    if (format == "STRING" && chosen.empty()) chosen = format;
  }
  if (chosen.empty())
    return Status(Code::kNotSupported, "no mutually supported format");

  // Phase 2: the mediated data transfer, INCR when large.
  if (data_from_owner.size() > x11::SelectionManager::kIncrThreshold) {
    return icccm_paste_incr(server, source, target, selection,
                            data_from_owner);
  }
  return icccm_paste(server, source, target, selection, data_from_owner);
}

// --- backend-neutral dispatchers ------------------------------------------------

namespace {
// The mime type the Wayland helpers transfer. The x11 helpers move the same
// payload as an untyped property; the monitor never sees either label.
constexpr const char* kWlTextMime = "text/plain";
}  // namespace

Status backend_copy(core::OverhaulSystem& sys, const GuiApp& source,
                    const std::string& selection) {
  if (sys.config().display_backend == core::DisplayBackendKind::kWayland) {
    auto& comp = sys.compositor();
    // A well-behaved toolkit echoes back the serial of the input event that
    // motivated the copy — the one the compositor just delivered.
    wl::WlConnection* conn = comp.connection(source.client());
    const wl::Serial serial =
        conn != nullptr ? conn->last_input_serial() : wl::kInvalidSerial;
    return comp.data_devices().set_selection(source.client(), serial,
                                             {kWlTextMime});
  }
  return icccm_copy(sys.xserver(), source, selection);
}

Result<std::string> backend_paste(core::OverhaulSystem& sys, GuiApp& source,
                                  GuiApp& target, const std::string& selection,
                                  const std::string& data_from_owner) {
  if (sys.config().display_backend == core::DisplayBackendKind::kWayland) {
    auto& data = sys.compositor().data_devices();
    // The receive request — mediated by Overhaul (paste permission).
    if (auto s = data.request_receive(target.client(), kWlTextMime);
        !s.is_ok())
      return s;
    // The source's toolkit answers the wl_data_source.send request.
    bool saw_request = false;
    for (const auto& ev : source.pump_wl_events()) {
      if (ev.type == wl::WlEventType::kDataSendRequest &&
          ev.mime == kWlTextMime) {
        saw_request = true;
        if (auto s =
                data.source_send(source.client(), kWlTextMime, data_from_owner);
            !s.is_ok())
          return s;
      }
    }
    if (!saw_request)
      return Status(Code::kBadRequest, "source never saw the send request");
    // The receiver reads its end of the compositor-brokered pipe.
    return data.take_received(target.client(), kWlTextMime);
  }
  return icccm_paste(sys.xserver(), source, target, selection,
                     data_from_owner);
}

Result<display::Image> backend_capture_screen(core::OverhaulSystem& sys,
                                              const GuiApp& app) {
  if (sys.config().display_backend == core::DisplayBackendKind::kWayland) {
    return sys.compositor().screencopy().capture_output(app.client());
  }
  return sys.xserver().screen().get_image(app.client(), x11::kRootWindow);
}

}  // namespace overhaul::apps

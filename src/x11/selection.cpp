#include "x11/selection.h"

#include <algorithm>

#include "x11/server.h"

namespace overhaul::x11 {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

// --- Fig. 6 step 2: SetSelection ---------------------------------------------

Status SelectionManager::set_selection_owner(ClientId client, Atom selection,
                                             WindowId owner_window) {
  XClient* c = server_.client(client);
  if (c == nullptr) return Status(Code::kNotFound, "no such client");
  display::Surface* win = server_.surface(owner_window);
  if (win == nullptr || win->owner() != client)
    return Status(Code::kBadWindow, "selection owner window invalid");

  const std::string_view name = server_.atoms().view(selection);
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    span = tracer.span("Selection::set_owner", "x11", c->pid());
    span.arg("selection", std::string(name));
  }

  // Overhaul modification: the copy must be correlated with user input
  // before ownership is granted; otherwise the client gets BadAccess.
  if (server_.overhaul_enabled()) {
    const Decision d = server_.ask_monitor(client, Op::kCopy, name);
    if (d == Decision::kDeny) {
      ++stats_.copies_denied;
      return Status(Code::kBadAccess, "copy not preceded by user input");
    }
    ++stats_.copies_granted;
  }

  owners_[selection] = SelectionOwner{client, owner_window};
  return Status::ok();
}

std::optional<SelectionOwner> SelectionManager::selection_owner(
    Atom selection) const {
  const auto it = owners_.find(selection);
  if (it == owners_.end()) return std::nullopt;
  return it->second;
}

// --- Fig. 6 step 6: ConvertSelection -------------------------------------------

Status SelectionManager::convert_selection(ClientId requestor, Atom selection,
                                           WindowId requestor_window,
                                           Atom property, Atom target) {
  XClient* req = server_.client(requestor);
  if (req == nullptr) return Status(Code::kNotFound, "no such client");
  display::Surface* win = server_.surface(requestor_window);
  if (win == nullptr || win->owner() != requestor)
    return Status(Code::kBadWindow, "requestor window invalid");

  const AtomRegistry& atoms = server_.atoms();
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    span = tracer.span("Selection::convert", "x11", req->pid());
    span.arg("selection", std::string(atoms.view(selection)));
    span.arg("target", std::string(atoms.view(target)));
  }

  const auto owner_it = owners_.find(selection);
  if (owner_it == owners_.end())
    return Status(Code::kBadAtom, "selection has no owner: " +
                                      std::string(atoms.view(selection)));

  // Overhaul modification: the paste must be correlated with user input.
  // TARGETS negotiation is metadata, not data — ICCCM clients routinely ask
  // for the format list before the user-driven paste, so it is exempt from
  // the input-correlation check (no clipboard *contents* move).
  if (server_.overhaul_enabled() && target != AtomRegistry::kTargets) {
    const Decision d =
        server_.ask_monitor(requestor, Op::kPaste, atoms.view(selection));
    if (d == Decision::kDeny) {
      ++stats_.pastes_denied;
      return Status(Code::kBadAccess, "paste not preceded by user input");
    }
    ++stats_.pastes_granted;
  }

  // Record the in-flight transfer and issue SelectionRequest to the owner
  // (step 7). SelectionRequest events originate from the server only.
  transfers_.push_back(Transfer{selection, owner_it->second.client, requestor,
                                requestor_window, property, target,
                                Transfer::State::kRequested, false});

  XClient* owner = server_.client(owner_it->second.client);
  if (owner != nullptr) {
    XEvent ev;
    ev.type = EventType::kSelectionRequest;
    ev.provenance = Provenance::kHardware;  // server-originated, trusted
    ev.synthetic_flag = false;
    ev.window = owner_it->second.window;
    ev.selection = selection;
    ev.property = property;
    ev.target = target;
    ev.requestor = requestor_window;
    owner->enqueue(ev);
  }
  return Status::ok();
}

// --- Fig. 6 step 8: ChangeProperty -----------------------------------------------

Status SelectionManager::change_property(ClientId client, WindowId window,
                                         Atom property, std::string data) {
  display::Surface* win = server_.surface(window);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");
  // The X maximum-request size bounds one-shot property writes; larger
  // transfers must use INCR.
  if (data.size() > kIncrThreshold)
    return Status(Code::kInvalidArgument,
                  "property exceeds max request size; use INCR");

  // A client may always write properties on its own windows; writing on a
  // foreign window is allowed only for the owner side of an in-flight
  // transfer targeting that window/property pair (the ICCCM data handoff).
  // The handoff readies the transfer on any window, so a client pasting its
  // own selection writes its own window.
  Transfer* transfer = transfer_on_property(window, property);
  const bool is_owner_handoff = transfer != nullptr &&
                                transfer->owner == client &&
                                transfer->state == Transfer::State::kRequested;
  if (win->owner() != client && !is_owner_handoff)
    return Status(Code::kBadAccess, "property write on foreign window");
  if (is_owner_handoff) transfer->state = Transfer::State::kDataReady;

  properties_[{window, property}] = std::move(data);
  deliver_property_notify(window, property);
  return Status::ok();
}

// --- Fig. 6 steps 11–13: GetProperty and DeleteProperty -------------------------

Result<std::string> SelectionManager::get_property(ClientId client,
                                                   WindowId window,
                                                   Atom property, bool del) {
  return access_property(client, window, property, /*read=*/true, del);
}

Status SelectionManager::delete_property(ClientId client, WindowId window,
                                         Atom property) {
  return access_property(client, window, property, /*read=*/false,
                         /*del=*/true)
      .status();
}

Result<std::string> SelectionManager::access_property(ClientId client,
                                                      WindowId window,
                                                      Atom property, bool read,
                                                      bool del) {
  const auto it = properties_.find({window, property});
  if (it == properties_.end())
    return Status(Code::kBadAtom,
                  "no such property: " +
                      std::string(server_.atoms().view(property)));
  Transfer* transfer = transfer_on_property(window, property);

  // Core X11 lets ANY client read ANY window's properties — that is the
  // clipboard-sniffing vector. Overhaul restricts in-flight clipboard data
  // to the paste target.
  if (read && server_.overhaul_enabled() && transfer != nullptr &&
      transfer->requestor != client) {
    ++stats_.snoops_blocked;
    return Status(Code::kBadAccess,
                  "in-flight clipboard data restricted to paste target");
  }
  if (!del) return it->second;

  display::Surface* win = server_.surface(window);
  if (win == nullptr || win->owner() != client)
    return Status(Code::kBadAccess, "delete on foreign window");
  std::string value = read ? std::move(it->second) : std::string();
  properties_.erase(it);

  // INCR: deleting a non-final chunk just frees the property for the next
  // one; the transfer stays in flight (and stays protected). Otherwise the
  // deletion completes the transfer(s) on this property, ending the
  // in-flight window.
  if (transfer == nullptr || transfer->state != Transfer::State::kIncrActive ||
      transfer->incr_final_sent)
    std::erase_if(transfers_, [&](const Transfer& t) {
      return t.requestor_window == window && t.property == property;
    });
  return value;
}

// --- INCR protocol --------------------------------------------------------------------

Status SelectionManager::begin_incr(ClientId owner, WindowId requestor_window,
                                    Atom property, std::size_t total_size) {
  Transfer* transfer = transfer_on_property(requestor_window, property);
  if (transfer == nullptr || transfer->owner != owner ||
      transfer->state != Transfer::State::kRequested)
    return Status(Code::kBadAccess, "no matching transfer awaiting data");
  transfer->state = Transfer::State::kIncrActive;
  properties_[{requestor_window, property}] =
      "INCR:" + std::to_string(total_size);
  deliver_property_notify(requestor_window, property);
  return Status::ok();
}

Status SelectionManager::send_incr_chunk(ClientId owner,
                                         WindowId requestor_window,
                                         Atom property, std::string chunk) {
  Transfer* transfer = transfer_on_property(requestor_window, property);
  if (transfer == nullptr || transfer->owner != owner ||
      transfer->state != Transfer::State::kIncrActive)
    return Status(Code::kBadAccess, "no INCR transfer in progress");
  if (transfer->incr_final_sent)
    return Status(Code::kBadRequest, "INCR transfer already terminated");
  if (properties_.count({requestor_window, property}) > 0)
    return Status(Code::kWouldBlock,
                  "previous chunk not yet consumed by the requestor");
  if (chunk.size() > kIncrThreshold)
    return Status(Code::kInvalidArgument, "chunk exceeds maximum size");

  if (chunk.empty()) transfer->incr_final_sent = true;
  properties_[{requestor_window, property}] = std::move(chunk);
  deliver_property_notify(requestor_window, property);
  return Status::ok();
}

void SelectionManager::subscribe_property_events(ClientId client,
                                                 WindowId window) {
  (void)server_.select_input(client, window, kPropertyChangeMask);
}

void SelectionManager::on_client_disconnected(ClientId client) {
  std::erase_if(owners_, [&](const auto& entry) {
    return entry.second.client == client;
  });
  std::erase_if(transfers_, [&](const Transfer& t) {
    return t.owner == client || t.requestor == client;
  });
}

// --- SendEvent policing ------------------------------------------------------------

bool SelectionManager::admit_send_event(ClientId sender, WindowId destination,
                                        const XEvent& event) {
  switch (event.type) {
    case EventType::kSelectionRequest:
      // Only the server issues SelectionRequest events; a client sending one
      // is pumping the selection owner for data (the bypass described in
      // §IV-A). Always blocked.
      return false;
    case EventType::kSelectionNotify:
      // Allowed only as step 9 of an in-flight transfer: the true owner
      // notifying the true requestor's window after the data is in place.
      for (auto& t : transfers_) {
        if (t.selection != event.selection ||
            t.requestor_window != destination || t.owner != sender)
          continue;
        if (t.state == Transfer::State::kDataReady) {
          t.state = Transfer::State::kNotified;
          return true;
        }
        // kIncrActive: the notify accompanies the INCR announcement; the
        // transfer stays in the streaming state.
        if (t.state == Transfer::State::kIncrActive) return true;
      }
      return false;
    default:
      return true;  // other synthetic events are delivered (flagged)
  }
}

// --- internals ------------------------------------------------------------------------

Transfer* SelectionManager::transfer_on_property(WindowId window,
                                                 Atom property) {
  for (auto& t : transfers_) {
    if (t.requestor_window == window && t.property == property) return &t;
  }
  return nullptr;
}

void SelectionManager::deliver_property_notify(WindowId window,
                                               Atom property) {
  Transfer* transfer = transfer_on_property(window, property);
  for (ClientId client_id :
       server_.clients_selecting(window, kPropertyChangeMask)) {
    // Overhaul: while clipboard data is in flight, property events for it
    // are delivered only to the paste target (§IV-A).
    if (server_.overhaul_enabled() && transfer != nullptr &&
        client_id != transfer->requestor) {
      ++stats_.snoops_blocked;
      continue;
    }
    if (XClient* c = server_.client(client_id); c != nullptr) {
      XEvent ev;
      ev.type = EventType::kPropertyNotify;
      ev.provenance = Provenance::kHardware;  // server-originated
      ev.window = window;
      ev.property = property;
      c->enqueue(ev);
    }
  }
}

}  // namespace overhaul::x11

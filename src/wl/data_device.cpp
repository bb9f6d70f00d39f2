#include "wl/data_device.h"

#include <algorithm>

#include "wl/compositor.h"

namespace overhaul::wl {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

// --- set_selection: the "copy" ------------------------------------------------

Status WlDataDeviceManager::set_selection(ClientId client, Serial serial,
                                          std::vector<std::string> mime_types) {
  WlConnection* c = comp_.connection(client);
  if (c == nullptr) return Status(Code::kNotFound, "no such client");
  if (mime_types.empty())
    return Status(Code::kInvalidArgument, "set_selection: no mime types");

  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    span = tracer.span("DataDevice::set_selection", "wl", c->pid());
    span.arg("serial", std::to_string(serial));
  }

  // Overhaul modification, mirroring set_selection_owner on X11: the copy
  // must be correlated with user input before the selection is granted.
  // Serial validation is provenance *accounting* — a forged serial is
  // counted, but the grant decision belongs to the monitor's interaction
  // correlation, which a forged serial cannot influence because interaction
  // records are minted only on the hardware-delivery path.
  bool genuine = true;
  if (comp_.overhaul_enabled()) {
    genuine = comp_.validate_serial(client, serial);
    const Decision d = comp_.ask_monitor(client, Op::kCopy, "selection");
    if (d == Decision::kDeny) {
      ++stats_.copies_denied;
      if (c_copies_denied_ != nullptr) c_copies_denied_->add();
      return Status(Code::kBadAccess, "copy not preceded by user input");
    }
    ++stats_.copies_granted;
    if (c_copies_granted_ != nullptr) c_copies_granted_->add();
  }

  selection_ = WlDataSource{client, std::move(mime_types), serial, genuine};
  // A new source invalidates transfers still pending against the old one.
  pending_.clear();
  advertise_to_focus();
  return Status::ok();
}

// --- receive: the "paste" -----------------------------------------------------

Status WlDataDeviceManager::request_receive(ClientId client,
                                            const std::string& mime) {
  WlConnection* req = comp_.connection(client);
  if (req == nullptr) return Status(Code::kNotFound, "no such client");

  obs::Tracer::Span span;
  if (auto& tracer = comp_.obs().tracer; tracer.enabled()) {
    span = tracer.span("DataDevice::receive", "wl", req->pid());
    span.arg("mime", mime);
  }

  if (!selection_.has_value() ||
      comp_.connection(selection_->client) == nullptr)
    return Status(Code::kBadAtom, "selection has no owner");
  if (std::find(selection_->mime_types.begin(), selection_->mime_types.end(),
                mime) == selection_->mime_types.end())
    return Status(Code::kInvalidArgument,
                  "receive: mime type not offered: " + mime);

  // Overhaul modification, mirroring ConvertSelection on X11: the paste must
  // be correlated with user input. (Format discovery has no analogue here —
  // the offered mime types travel with the data_offer advertisement, so
  // there is no TARGETS-style metadata request to exempt.)
  if (comp_.overhaul_enabled()) {
    const Decision d = comp_.ask_monitor(client, Op::kPaste, "selection");
    if (d == Decision::kDeny) {
      ++stats_.pastes_denied;
      if (c_pastes_denied_ != nullptr) c_pastes_denied_->add();
      return Status(Code::kBadAccess, "paste not preceded by user input");
    }
    ++stats_.pastes_granted;
    if (c_pastes_granted_ != nullptr) c_pastes_granted_->add();
  }

  // Record the in-flight transfer and ask the source to produce the data
  // (wl_data_source.send). The pipe is compositor-brokered: only the paste
  // target ever sees the bytes — the snooping x11 GetProperty race does not
  // exist by construction.
  pending_.push_back(PendingReceive{client, mime, false, {}});
  if (WlConnection* owner = comp_.connection(selection_->client);
      owner != nullptr) {
    WlEvent ev;
    ev.type = WlEventType::kDataSendRequest;
    ev.mime = mime;
    owner->enqueue(std::move(ev));
  }
  return Status::ok();
}

Status WlDataDeviceManager::source_send(ClientId source_client,
                                        const std::string& mime,
                                        std::string data) {
  if (!selection_.has_value() || selection_->client != source_client)
    return Status(Code::kBadAccess, "send: not the selection source");
  for (auto& p : pending_) {
    if (p.mime == mime && !p.data_ready) {
      p.data_ready = true;
      p.data = std::move(data);
      return Status::ok();
    }
  }
  return Status(Code::kNotFound, "send: no transfer awaiting data");
}

Result<std::string> WlDataDeviceManager::take_received(
    ClientId client, const std::string& mime) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->target != client || it->mime != mime) continue;
    if (!it->data_ready)
      return Status(Code::kWouldBlock, "transfer not yet answered by source");
    std::string data = std::move(it->data);
    pending_.erase(it);
    ++stats_.transfers_completed;
    return data;
  }
  return Status(Code::kNotFound, "no transfer for this client");
}

// --- offer advertisement ------------------------------------------------------

void WlDataDeviceManager::advertise_to_focus() {
  if (!selection_.has_value()) return;
  display::Surface* focus = comp_.surface(comp_.seat().keyboard_focus());
  if (focus == nullptr) return;
  WlConnection* conn = comp_.connection(focus->owner());
  if (conn == nullptr) return;
  WlEvent ev;
  ev.type = WlEventType::kDataOffer;
  ev.mime_types = selection_->mime_types;
  conn->enqueue(std::move(ev));
  ++stats_.offers_advertised;
}

void WlDataDeviceManager::on_client_disconnected(ClientId client) {
  if (selection_.has_value() && selection_->client == client) {
    selection_.reset();
    pending_.clear();
  }
  std::erase_if(pending_,
                [&](const PendingReceive& p) { return p.target == client; });
}

}  // namespace overhaul::wl

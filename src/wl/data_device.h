// WlDataDeviceManager: the wl_data_device clipboard, mediated by Overhaul.
//
// Wayland's clipboard is compositor-brokered: an owner declares a data
// source with set_selection (presenting the input serial of the user action
// that motivated it), the compositor advertises a data_offer to the
// keyboard-focus client, and a receiver asks the compositor to have the
// source produce the data. Overhaul interposes exactly where it does on the
// X11 selection protocol (§IV-A):
//   * set_selection  — the "copy"  — requires input correlation (Op::kCopy)
//   * receive        — the "paste" — requires input correlation (Op::kPaste)
// Serial validation is *provenance accounting*, not the grant mechanism:
// interaction records are minted only on the compositor's hardware-input
// delivery path, so a forged or replayed serial can never mint one (it is
// counted in wl.input.forged_serials). The monitor's input-correlation
// check is what grants or denies — identically to the X11 backend, which is
// what the cross-backend differential oracle asserts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/status.h"
#include "wl/connection.h"

namespace overhaul::wl {

class WlCompositor;

// The current selection: who owns it and which formats it offers.
struct WlDataSource {
  ClientId client = 0;
  std::vector<std::string> mime_types;
  Serial serial = kInvalidSerial;  // as presented (possibly forged)
  bool serial_genuine = false;     // seat-validated provenance
};

class WlDataDeviceManager {
 public:
  explicit WlDataDeviceManager(WlCompositor& comp) : comp_(comp) {}

  // wl_data_device.set_selection: `client` claims the selection, presenting
  // the input serial of the user action behind it. Mediated as Op::kCopy.
  util::Status set_selection(ClientId client, Serial serial,
                             std::vector<std::string> mime_types);

  [[nodiscard]] const WlDataSource* selection() const noexcept {
    return selection_.has_value() ? &*selection_ : nullptr;
  }

  // wl_data_offer.receive for the current selection: mediated as Op::kPaste.
  // On grant the source client gets a kDataSendRequest event and must answer
  // with source_send(); the receiver then collects via take_received().
  util::Status request_receive(ClientId client, const std::string& mime);

  // The source side of the transfer (a toolkit answering wl_data_source.send).
  util::Status source_send(ClientId source_client, const std::string& mime,
                           std::string data);

  // The receiver side: collect the transferred data (reads the pipe).
  util::Result<std::string> take_received(ClientId client,
                                          const std::string& mime);

  // Advertise the current selection as a data_offer to the keyboard-focus
  // client (called on set_selection and on keyboard-focus change — Wayland
  // re-sends the selection offer on keyboard enter).
  void advertise_to_focus();

  // Selection ownership cleanup on client disconnect.
  void on_client_disconnected(ClientId client);

  struct Stats {
    std::uint64_t copies_granted = 0;
    std::uint64_t copies_denied = 0;
    std::uint64_t pastes_granted = 0;
    std::uint64_t pastes_denied = 0;
    std::uint64_t offers_advertised = 0;
    std::uint64_t transfers_completed = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  friend class WlCompositor;

  // Pre-resolved obs handles (wl.clipboard.*), filled by the compositor.
  void attach_obs(obs::Counter* copies_granted, obs::Counter* copies_denied,
                  obs::Counter* pastes_granted, obs::Counter* pastes_denied) {
    c_copies_granted_ = copies_granted;
    c_copies_denied_ = copies_denied;
    c_pastes_granted_ = pastes_granted;
    c_pastes_denied_ = pastes_denied;
  }

  struct PendingReceive {
    ClientId target = 0;
    std::string mime;
    bool data_ready = false;
    std::string data;
  };

  WlCompositor& comp_;
  std::optional<WlDataSource> selection_;
  std::vector<PendingReceive> pending_;
  Stats stats_;
  obs::Counter* c_copies_granted_ = nullptr;
  obs::Counter* c_copies_denied_ = nullptr;
  obs::Counter* c_pastes_granted_ = nullptr;
  obs::Counter* c_pastes_denied_ = nullptr;
};

}  // namespace overhaul::wl

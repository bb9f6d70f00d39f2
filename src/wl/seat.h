// WlSeat: input focus and serial-based provenance.
//
// Wayland has no SendEvent and no XTEST: clients cannot inject input at
// all. What a client *can* do is present an input serial with a request
// that claims to be user-initiated (wl_data_device.set_selection). The
// compositor mints one serial per hardware event at delivery time and
// remembers which client it was delivered to; validation checks that a
// presented serial (a) was actually minted by this seat and (b) was minted
// *for the presenting client*. A forged, replayed, or stolen serial fails
// that check — and since interaction records are minted only on the
// hardware-event delivery path (WlCompositor::deliver_input), no request
// carrying a serial can ever mint one. This is the Wayland analogue of the
// X11 SendEvent/XTEST provenance filter (§IV-A).
#pragma once

#include <cstdint>
#include <deque>

#include "sim/clock.h"
#include "wl/connection.h"

namespace overhaul::wl {

class WlSeat {
 public:
  explicit WlSeat(sim::Clock& clock) : clock_(clock) {}

  struct SerialRecord {
    Serial serial = kInvalidSerial;
    ClientId client = 0;       // the client the event was delivered to
    SurfaceId surface = kNoSurface;
    sim::Timestamp minted_at;
  };

  // Serials are minted consecutively; the history is a bounded ring so a
  // long session cannot grow it without bound (mirrors the input trace cap).
  static constexpr std::size_t kSerialHistory = 8192;

  // Mint the next serial for a hardware event delivered to `client` on
  // `surface`. Only the compositor's input-delivery path calls this.
  Serial mint_serial(ClientId client, SurfaceId surface) {
    const Serial serial = next_serial_++;
    history_.push_back(SerialRecord{serial, client, surface, clock_.now()});
    if (history_.size() > kSerialHistory) history_.pop_front();
    return serial;
  }

  // The record for `serial`, or nullptr when it was never minted (or has
  // aged out of the ring). Consecutive minting makes this an index lookup.
  [[nodiscard]] const SerialRecord* lookup(Serial serial) const {
    if (history_.empty() || serial == kInvalidSerial) return nullptr;
    const Serial front = history_.front().serial;
    if (serial < front || serial >= front + history_.size()) return nullptr;
    return &history_[serial - front];
  }

  // Provenance check: is `serial` one this seat minted for `client`?
  [[nodiscard]] bool serial_valid(ClientId client, Serial serial) const {
    const SerialRecord* rec = lookup(serial);
    return rec != nullptr && rec->client == client;
  }

  [[nodiscard]] Serial last_minted() const noexcept {
    return next_serial_ - 1;
  }

  // --- focus ----------------------------------------------------------------
  void set_pointer_focus(SurfaceId s) noexcept { pointer_focus_ = s; }
  void set_keyboard_focus(SurfaceId s) noexcept { keyboard_focus_ = s; }
  [[nodiscard]] SurfaceId pointer_focus() const noexcept {
    return pointer_focus_;
  }
  [[nodiscard]] SurfaceId keyboard_focus() const noexcept {
    return keyboard_focus_;
  }

 private:
  sim::Clock& clock_;
  std::deque<SerialRecord> history_;
  Serial next_serial_ = 1;  // 0 is kInvalidSerial
  SurfaceId pointer_focus_ = kNoSurface;
  SurfaceId keyboard_focus_ = kNoSurface;
};

}  // namespace overhaul::wl

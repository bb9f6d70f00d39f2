// WlCompositor: the Wayland-style display backend with Overhaul's
// enhancements — the second implementation of the core::DisplayBackend seam,
// modelled at the same fidelity as x11::XServer.
//
// Responsibilities reproduced from the paper, translated to Wayland:
//  * Trusted input path — there is no SendEvent and no XTEST; clients can
//    only *reference* input via compositor-minted wl_seat serials. Hardware
//    events mint a serial and go through the shared trusted input rule at
//    delivery time; a request presenting a forged or replayed serial mints
//    nothing and is counted.
//  * Resource interposition — WlDataDeviceManager (clipboard) and
//    WlScreencopyManager (capture) call back into ask_monitor().
// The clickjacking rule, the kernel liaison, the trusted output (the
// display::AlertOverlay as a layer-shell surface on the topmost layer) and
// the surface store are the shared core::DisplayBackend; this class adds
// the Wayland protocol: the seat, xdg configure events, the data device and
// screencopy.
//
// `DisplayConfig::overhaul_enabled = false` gives the unmodified
// compositor for benchmark baselines: no provenance accounting, no
// notifications, no permission queries.
#pragma once

#include <cstdint>
#include <memory>

#include "core/display_backend.h"
#include "kern/kernel.h"
#include "util/annotations.h"
#include "wl/connection.h"
#include "wl/data_device.h"
#include "wl/screencopy.h"
#include "wl/seat.h"

namespace overhaul::wl {

inline constexpr const char* kCompositorExe = "/usr/bin/wayland-compositor";

class WlCompositor final : public core::DisplayBackend {
 public:
  // Spawns the compositor process (as a child of init) and, when Overhaul
  // is enabled, connects the authenticated netlink channel.
  explicit WlCompositor(kern::Kernel& kernel, core::DisplayConfig config = {});

  // The backend's WlEvent-queue view of a connected client.
  [[nodiscard]] WlConnection* connection(ClientId id) {
    return static_cast<WlConnection*>(client(id));
  }

  // --- trusted input path ---------------------------------------------------
  // A button press focuses the surface under the pointer (pointer and
  // keyboard); a key press goes to the keyboard-focus surface.
  void hardware_button_press(int x, int y, int button) override;
  void hardware_key_press(int keycode) override;

  // Serial provenance bookkeeping for requests that present a serial:
  // returns whether the seat minted `serial` for `client`; counts a forgery
  // (wl.input.forged_serials) when it did not. Never mints interactions.
  bool validate_serial(ClientId client, Serial serial);

  // --- sub-managers ---------------------------------------------------------
  [[nodiscard]] WlSeat& seat() noexcept { return seat_; }
  [[nodiscard]] WlDataDeviceManager& data_devices() noexcept { return data_; }
  [[nodiscard]] WlScreencopyManager& screencopy() noexcept {
    return screencopy_;
  }

  // Requests with bogus serials; hardware input is in input_stats().
  struct Stats {
    std::uint64_t forged_serials = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::unique_ptr<display::Client> make_client(ClientId id,
                                               kern::Pid pid) override {
    return std::make_unique<WlConnection>(id, pid);
  }
  void on_surface_change(const display::Surface& surf,
                         SurfaceChange change) override;
  void on_client_detached(ClientId id) override;

  // Deliver a hardware input event to the owner of `surf`: mint the serial,
  // then apply the shared trusted input rule.
  void deliver_input(WlEvent event, display::Surface& surf);

  // Same confinement as the shared core: one compositor per simulated seat.
  OVERHAUL_SHARD_LOCAL WlSeat seat_;
  OVERHAUL_SHARD_LOCAL WlDataDeviceManager data_{*this};
  OVERHAUL_SHARD_LOCAL WlScreencopyManager screencopy_{*this};
  OVERHAUL_SHARD_LOCAL Stats stats_;

  // Pre-resolved obs handle (wl.input.forged_serials).
  OVERHAUL_SHARD_LOCAL obs::Counter* c_forged_serials_ = nullptr;
};

}  // namespace overhaul::wl

// XServer: the display manager with Overhaul's enhancements (§IV-A).
//
// Responsibilities reproduced from the paper:
//  * Trusted input path — distinguish hardware input from SendEvent
//    (synthetic wire flag) and XTEST (provenance tag) injections; only
//    hardware events generate interaction notifications.
//  * Resource interposition — SelectionManager (clipboard) and
//    ScreenResources (display contents) call back into ask_monitor().
// The clickjacking rule, the kernel liaison, the trusted output and the
// window store are the shared core::DisplayBackend; this class adds the X11
// protocol: the root window, StructureNotify, focus, grabs, event masks,
// SendEvent/XTEST, ICCCM selections, GetImage/XShm/CopyArea, prompts and
// access-control gadgets.
//
// `DisplayConfig::overhaul_enabled = false` gives the unmodified X server
// for benchmark baselines: no provenance filtering, no notifications, no
// permission queries.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/display_backend.h"
#include "kern/kernel.h"
#include "util/annotations.h"
#include "x11/acg.h"
#include "x11/client.h"
#include "x11/prompt.h"
#include "x11/screen.h"
#include "x11/selection.h"
#include "x11/wire.h"

namespace overhaul::x11 {

inline constexpr const char* kXorgExe = "/usr/lib/xorg/Xorg";

class XServer final : public core::DisplayBackend {
 public:
  // Spawns the Xorg process (as a child of init), connects the netlink
  // channel when Overhaul is enabled, and maps the root window.
  explicit XServer(kern::Kernel& kernel, core::DisplayConfig config = {});

  // The backend's XEvent-queue view of a connected client.
  [[nodiscard]] XClient* client(ClientId id) {
    return static_cast<XClient*>(DisplayBackend::client(id));
  }

  // --- event selection (XSelectInput) -----------------------------------------
  // Replaces any previous mask this client held for the window. Any client
  // may select on any window (core X semantics).
  util::Status select_input(ClientId client, WindowId window,
                            std::uint32_t mask);
  // Clients currently selecting `mask` bits on `window`.
  [[nodiscard]] std::vector<ClientId> clients_selecting(
      WindowId window, std::uint32_t mask) const;

  // --- input path -------------------------------------------------------------------
  // Hardware events (from the input driver). A button press first offers
  // the click to a pending prompt, then to an active pointer grab; a key
  // press goes to an active keyboard grab before the focus window.
  void hardware_button_press(int x, int y, int button) override;
  void hardware_key_press(int keycode) override;

  // Core-protocol SendEvent: the event is delivered with the synthetic flag
  // set; it is also the vehicle for protocol attacks, so it is policed (see
  // selection manager integration).
  util::Status send_event(ClientId sender, WindowId target, XEvent event);

  // XTEST extension: fake input that is *not* flagged on the wire; the
  // modified server tags its provenance instead.
  util::Status xtest_fake_button(ClientId sender, int x, int y);
  util::Status xtest_fake_key(ClientId sender, int keycode);

  [[nodiscard]] WindowId focus() const noexcept { return focus_; }

  // --- input grabs (XGrabKeyboard / XGrabPointer) -----------------------------
  // A grab redirects ALL input of that class to the grabbing window — the
  // classic keylogger vector. Grabbed input still goes through the trusted
  // input path: interaction notifications for the grabber obey the same
  // visibility rules, so an invisible grab window harvests keystroke data
  // but can never mint Overhaul permissions from them.
  util::Status grab_keyboard(ClientId client, WindowId window);
  util::Status ungrab_keyboard(ClientId client);
  util::Status grab_pointer(ClientId client, WindowId window);
  util::Status ungrab_pointer(ClientId client);

  // --- sub-managers -------------------------------------------------------------------
  [[nodiscard]] SelectionManager& selections() noexcept { return selections_; }
  [[nodiscard]] ScreenResources& screen() noexcept { return screen_; }
  [[nodiscard]] PromptManager& prompts() noexcept { return prompts_; }
  [[nodiscard]] AcgManager& acg() noexcept { return acg_; }
  [[nodiscard]] AtomRegistry& atoms() noexcept { return atoms_; }

  // Client-injected events; hardware input is in input_stats().
  struct Stats {
    std::uint64_t synthetic_events = 0;
    std::uint64_t blocked_send_events = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::unique_ptr<display::Client> make_client(display::ClientId id,
                                               kern::Pid pid) override {
    return std::make_unique<XClient>(id, pid);
  }
  void on_surface_change(const display::Surface& win,
                         SurfaceChange change) override;
  void on_client_detached(display::ClientId id) override;

  // Deliver an event to the owner of `win` (hardware, SendEvent or XTEST);
  // key and button events go through the trusted input rule. Returns
  // whether it counted as an interaction.
  bool deliver_input(XEvent event, display::Surface& win);

  // Emit a StructureNotify-family event to every client selecting it.
  void emit_structure_notify(WindowId window, EventType type);

  // Same confinement as the shared core: one X server per simulated seat.
  OVERHAUL_SHARD_LOCAL WindowId focus_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL WindowId keyboard_grab_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL WindowId pointer_grab_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL std::map<std::pair<ClientId, WindowId>, std::uint32_t>
      event_masks_;

  OVERHAUL_SHARD_LOCAL SelectionManager selections_{*this};
  OVERHAUL_SHARD_LOCAL ScreenResources screen_{*this};
  OVERHAUL_SHARD_LOCAL PromptManager prompts_{*this};
  OVERHAUL_SHARD_LOCAL AcgManager acg_{*this};
  OVERHAUL_SHARD_LOCAL AtomRegistry atoms_;
  OVERHAUL_SHARD_LOCAL Stats stats_;

  // Pre-resolved obs handles (SendEvent/XTEST accounting and policing).
  OVERHAUL_SHARD_LOCAL obs::Counter* c_synthetic_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_send_event_drops_ = nullptr;
};

}  // namespace overhaul::x11

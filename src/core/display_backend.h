// DisplayBackend: the display server's half of Overhaul (§IV-A), written
// once for both display protocols.
//
// Overhaul's mechanism is display-server-cooperative but not X11-specific:
// any server that (a) forwards authentic-input notifications over the
// authenticated netlink channel, (b) routes clipboard/capture requests
// through the kernel permission monitor, and (c) hosts the trusted alert
// overlay reproduces the paper's policy. This class is that server core:
//  * kernel liaison — it spawns the server process, connects the netlink
//    channel at initialization, sends N_{A,t}, issues Q_{A,t}
//    (ask_monitor) and routes V_{A,op} to the alert overlay; it is the only
//    display-side user of the channel;
//  * the trusted input rule — hardware input on a surface that has stayed
//    visible past the threshold sends N_{A,t}, anything else counts a
//    clickjack suppression (report_input);
//  * the client and surface store: kernel-verified client pids, surface
//    geometry, map state and visibility clock, stacking, hit-testing.
// x11::XServer and wl::WlCompositor derive from it and add only their
// protocols, which is what keeps them interchangeable behind
// core::OverhaulSystem and makes the cross-backend differential oracle
// (tests/integration/backend_diff_test.cpp) possible.
//
// Vocabulary mapping:
//            seam              X11                  Wayland
//   attach_client        connection setup      wl_display connection
//   open_surface         CreateWindow          wl_surface + xdg_toplevel
//   show_surface         MapWindow             configure + commit (map)
//   hide_surface         UnmapWindow           null buffer commit (unmap)
//   configure_surface    ConfigureWindow       xdg configure (move/resize)
//   set_input_only       InputOnly window      input region, no buffer
//   hardware_*_press     trusted input path    wl_seat serial-minting path
//   ask_monitor          selection/screen      data device/screencopy
//   alert_overlay        overlay window        layer-shell overlay surface
// Protocol surfaces stay in the backends: event masks, grants, focus,
// SendEvent/XTEST provenance, ICCCM, GetImage and prompts on X11; the seat,
// xdg configure events, the data device and screencopy on Wayland.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "display/alert.h"
#include "display/client.h"
#include "display/surface.h"
#include "display/types.h"
#include "kern/kernel.h"
#include "util/annotations.h"
#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::core {

enum class DisplayBackendKind : std::uint8_t { kX11, kWayland };

[[nodiscard]] constexpr std::string_view display_backend_name(
    DisplayBackendKind kind) noexcept {
  return kind == DisplayBackendKind::kX11 ? "x11" : "wayland";
}

struct DisplayConfig {
  // false gives the unmodified server for benchmark baselines: no
  // notifications, no permission queries, no provenance policing.
  bool overhaul_enabled = true;
  // Clickjacking visibility threshold: a surface must have been
  // continuously visible at least this long before input on it counts as
  // interaction. (The paper uses "a predefined time threshold" without
  // quoting a value; 500 ms is our default and the ablation bench sweeps it.)
  sim::Duration visibility_threshold = sim::Duration::millis(500);
  int screen_width = 1024;
  int screen_height = 768;
};

class DisplayBackend {
 public:
  virtual ~DisplayBackend();

  DisplayBackend(const DisplayBackend&) = delete;
  DisplayBackend& operator=(const DisplayBackend&) = delete;

  [[nodiscard]] DisplayBackendKind backend_kind() const noexcept {
    return kind_;
  }
  // The display server's own process (the authenticated netlink peer).
  [[nodiscard]] kern::Pid server_pid() const noexcept { return pid_; }
  [[nodiscard]] kern::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const DisplayConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool overhaul_enabled() const noexcept {
    return config_.overhaul_enabled;
  }
  [[nodiscard]] sim::Clock& clock() noexcept { return kernel_.clock(); }
  // The kernel-wide observability bundle; the server and its sub-managers
  // record request spans and drop counters into it.
  [[nodiscard]] obs::Observability& obs() noexcept { return kernel_.obs(); }

  // --- trusted input path ----------------------------------------------------
  // Only the HardwareInputDriver below reaches these; everything a client
  // can reach (SendEvent/XTEST on X11, serial-carrying requests on Wayland)
  // is tagged or validated so it can never mint interaction records.
  // Button press: delivered to the topmost surface at (x,y), which takes
  // focus. Key press: delivered to the focus surface.
  virtual void hardware_button_press(int x, int y, int button) = 0;
  virtual void hardware_key_press(int keycode) = 0;

  // --- clients ---------------------------------------------------------------
  // The pid is the kernel-verified socket peer; clients cannot forge it.
  util::Result<display::ClientId> attach_client(kern::Pid pid);
  // Destroys the client's surfaces and drops its protocol state.
  util::Status disconnect_client(display::ClientId id);
  [[nodiscard]] display::Client* client(display::ClientId id) {
    const auto it = clients_.find(id);
    return it == clients_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] display::Client* client_of_pid(kern::Pid pid);

  // --- surfaces --------------------------------------------------------------
  // Every request but open_surface is owner-only.
  util::Result<display::SurfaceId> open_surface(display::ClientId client,
                                                display::Rect rect);
  // Map: the surface joins the top of the stacking order and its visibility
  // clock (re)starts.
  util::Status show_surface(display::ClientId client, display::SurfaceId id);
  util::Status hide_surface(display::ClientId client, display::SurfaceId id);
  // Raise a mapped surface. Does NOT restart the visibility clock: the
  // surface was already visible; only map does.
  util::Status raise_surface(display::ClientId client, display::SurfaceId id);
  // Move and/or resize; restarts the clock on a mapped surface.
  util::Status configure_surface(display::ClientId client,
                                 display::SurfaceId id, display::Rect rect);
  util::Status set_input_only(display::ClientId client, display::SurfaceId id,
                              bool on);
  // Inline, like client(): every input event and request looks up both.
  [[nodiscard]] display::Surface* surface(display::SurfaceId id) {
    const auto it = surfaces_.find(id);
    return it == surfaces_.end() ? nullptr : it->second.get();
  }
  util::Result<display::Rect> surface_rect(display::SurfaceId id);
  [[nodiscard]] const std::vector<display::SurfaceId>& stacking_order()
      const noexcept {
    return stacking_;  // bottom → top; the alert overlay sits above all of it
  }
  // Topmost mapped surface containing the point, or nullptr.
  [[nodiscard]] display::Surface* surface_at(int x, int y);

  // --- monitor query hook ----------------------------------------------------
  // Ask the kernel permission monitor about `op` for the process behind
  // `client`. Grant-by-default when Overhaul is disabled (baseline).
  util::Decision ask_monitor(display::ClientId client, util::Op op,
                             std::string_view detail);

  // --- trusted output --------------------------------------------------------
  display::AlertOverlay& alert_overlay() noexcept { return alerts_; }

  // --- accounting --------------------------------------------------------------
  // Bytes of pixel storage held across every surface. Buffers stay solid
  // until a client draws (display::PixelBuffer), so this is 0 until
  // something does.
  [[nodiscard]] std::size_t pixel_bytes() const noexcept;

  // Hardware input and what the trusted input rule made of it; mirrored by
  // the <x11|wl>.input.{hardware_events,notifications,clickjack_suppressed}
  // counters.
  struct InputStats {
    std::uint64_t hardware_events = 0;
    std::uint64_t interaction_notifications = 0;
    std::uint64_t clickjack_suppressed = 0;  // hardware events w/o notification
  };
  [[nodiscard]] const InputStats& input_stats() const noexcept {
    return input_stats_;
  }

  // --- input trace -----------------------------------------------------------
  // Bounded record of every delivered key or button event: who received it,
  // whether a client injected it, and whether it produced an interaction
  // notification. Feeds the core::Timeline explainability view.
  enum class InputKind : std::uint8_t { kButton, kKey };
  struct InputTraceEntry {
    sim::Timestamp time;
    InputKind kind = InputKind::kButton;
    bool synthetic = false;  // SendEvent/XTEST; Wayland clients cannot inject
    kern::Pid receiver_pid = kern::kNoPid;
    display::SurfaceId surface = display::kNoSurface;
    bool produced_notification = false;
    bool clickjack_suppressed = false;
  };
  static constexpr std::size_t kInputTraceCapacity = 10'000;
  [[nodiscard]] const std::deque<InputTraceEntry>& input_trace() const {
    return input_trace_;
  }

 protected:
  // Spawns the server process `exe` (as a child of init) and, when Overhaul
  // is enabled, connects the authenticated netlink channel.
  DisplayBackend(kern::Kernel& kernel, DisplayConfig config,
                 DisplayBackendKind kind, const char* exe, const char* comm);

  // A new client of the backend's own type (its event queue's protocol).
  virtual std::unique_ptr<display::Client> make_client(display::ClientId id,
                                                       kern::Pid pid) = 0;

  // Protocol follow-ups to a surface request that succeeded: StructureNotify
  // on X11, xdg configure on Wayland, focus cleanup on destruction.
  enum class SurfaceChange : std::uint8_t {
    kShown,
    kHidden,
    kConfigured,
    kDestroyed,  // the owner disconnected; called before the surface goes
  };
  virtual void on_surface_change(const display::Surface& surf,
                                 SurfaceChange change) = 0;
  // Drop per-client protocol state (selections, event masks, data sources).
  virtual void on_client_detached(display::ClientId id) = 0;

  // The one server-owned surface (the X11 root window): mapped at boot, kept
  // out of the stacking order.
  display::SurfaceId create_root_surface();

  // The trusted input rule (§IV-A), applied to one key or button event
  // delivered to `surf`, whose owner is `receiver`. Hardware input on a
  // surface that passes the visibility check sends N_{A,t}; hardware input
  // on any other surface counts a clickjack suppression; synthetic input is
  // only traced. Returns whether the event counted as an interaction.
  bool report_input(InputKind kind, bool hardware, const display::Surface& surf,
                    kern::Pid receiver);
  // ACG comparison mode: an op-specific grant for a hardware click inside a
  // gadget of `surf`, after report_input counted the click.
  void grant_gadget(const display::Surface& surf, util::Op op);

 private:
  // The clickjacking rule: mapped, not input-only, visible long enough.
  [[nodiscard]] bool passes_visibility_check(
      const display::Surface& surf) const;
  util::Result<display::Surface*> owned_surface(display::ClientId client,
                                                display::SurfaceId id);

  kern::Kernel& kernel_;
  // Display-server state is confined to its shard: one backend instance per
  // simulated seat, never shared across sim partitions.
  OVERHAUL_SHARD_LOCAL DisplayConfig config_;
  OVERHAUL_SHARD_LOCAL DisplayBackendKind kind_;
  OVERHAUL_SHARD_LOCAL kern::Pid pid_ = kern::kNoPid;
  OVERHAUL_SHARD_LOCAL std::shared_ptr<kern::NetlinkChannel> channel_;
  OVERHAUL_SHARD_LOCAL display::AlertOverlay alerts_;

  OVERHAUL_SHARD_LOCAL std::map<display::ClientId,
                                std::unique_ptr<display::Client>>
      clients_;
  OVERHAUL_SHARD_LOCAL std::map<display::SurfaceId,
                                std::unique_ptr<display::Surface>>
      surfaces_;
  OVERHAUL_SHARD_LOCAL std::vector<display::SurfaceId> stacking_;
  OVERHAUL_SHARD_LOCAL display::ClientId next_client_ = 1;
  OVERHAUL_SHARD_LOCAL display::SurfaceId next_surface_ = 1;

  OVERHAUL_SHARD_LOCAL InputStats input_stats_;
  OVERHAUL_SHARD_LOCAL std::deque<InputTraceEntry> input_trace_;
  // Pre-resolved obs handles (<x11|wl>.input.*).
  OVERHAUL_SHARD_LOCAL obs::Counter* c_hw_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_notifications_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_clickjack_ = nullptr;
};

// HardwareInputDriver: the device-driver side of the trusted input path.
//
// In the paper's model, "user inputs that originate from hardware attached
// to the system should be considered authentic" (§IV-A). This driver is the
// only source of hardware-provenance events — simulated applications have
// no handle to it; scenario harnesses (the "user") do. It drives whichever
// backend the system booted.
class HardwareInputDriver {
 public:
  explicit HardwareInputDriver(DisplayBackend& backend) : backend_(backend) {}

  // A physical mouse click at screen coordinates.
  void click(int x, int y, int button = 1) {
    backend_.hardware_button_press(x, y, button);
  }

  // A physical key press delivered to the focused window.
  void key(int keycode) { backend_.hardware_key_press(keycode); }

  // Convenience for common chords used in scenarios.
  static constexpr int kKeyCtrlC = 1001;  // copy chord
  static constexpr int kKeyCtrlV = 1002;  // paste chord
  static constexpr int kKeyEnter = 1003;
  static constexpr int kKeyPrintScreen = 1004;

  void press_copy_chord() { key(kKeyCtrlC); }
  void press_paste_chord() { key(kKeyCtrlV); }
  void press_enter() { key(kKeyEnter); }

 private:
  DisplayBackend& backend_;
};

}  // namespace overhaul::core

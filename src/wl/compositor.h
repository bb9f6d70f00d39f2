// WlCompositor: the Wayland-style display backend with Overhaul's
// enhancements — the second implementation of the core::DisplayBackend seam,
// modelled at the same fidelity as x11::XServer.
//
// Responsibilities reproduced from the paper, translated to Wayland:
//  * Trusted input path — there is no SendEvent and no XTEST; clients can
//    only *reference* input via compositor-minted wl_seat serials. Hardware
//    events mint a serial and (visibility permitting) an interaction
//    notification at delivery time; a request presenting a forged or
//    replayed serial mints nothing and is counted.
//  * Clickjacking defense — notifications only for surfaces that are
//    mapped, not input-only, and have stayed visible longer than the
//    threshold; the clock restarts on map and on configure-move/resize.
//  * Kernel liaison — the compositor process connects the authenticated
//    netlink channel at startup; sends N_{A,t}, issues Q_{A,t}, receives
//    V_{A,op}.
//  * Trusted output — the shared display::AlertOverlay, hosted here as a
//    layer-shell surface on the topmost overlay layer.
//  * Resource interposition — WlDataDeviceManager (clipboard) and
//    WlScreencopyManager (capture) call back into ask_monitor().
//
// `WlCompositorConfig::overhaul_enabled = false` gives the unmodified
// compositor for benchmark baselines: no provenance accounting, no
// notifications, no permission queries.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "core/display_backend.h"
#include "display/alert.h"
#include "kern/kernel.h"
#include "util/annotations.h"
#include "wl/connection.h"
#include "wl/data_device.h"
#include "wl/screencopy.h"
#include "wl/seat.h"
#include "wl/surface.h"

namespace overhaul::wl {

inline constexpr const char* kCompositorExe = "/usr/bin/wayland-compositor";

struct WlCompositorConfig {
  bool overhaul_enabled = true;
  // Clickjacking visibility threshold — same default and semantics as the
  // X11 backend; the differential oracle depends on the two matching.
  sim::Duration visibility_threshold = sim::Duration::millis(500);
  int screen_width = 1024;
  int screen_height = 768;
};

class WlCompositor final : public core::DisplayBackend {
 public:
  // Spawns the compositor process (as a child of init) and, when Overhaul
  // is enabled, connects the authenticated netlink channel.
  WlCompositor(kern::Kernel& kernel, WlCompositorConfig config = {});

  WlCompositor(const WlCompositor&) = delete;
  WlCompositor& operator=(const WlCompositor&) = delete;

  [[nodiscard]] kern::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const WlCompositorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool overhaul_enabled() const noexcept {
    return config_.overhaul_enabled;
  }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return kernel_.clock(); }
  [[nodiscard]] obs::Observability& obs() noexcept { return kernel_.obs(); }

  // --- client connections ---------------------------------------------------
  // The pid is the kernel-verified socket peer; clients cannot forge it.
  util::Result<WlClientId> connect_client(kern::Pid pid);
  util::Status disconnect_client(WlClientId id);
  [[nodiscard]] WlConnection* connection(WlClientId id);
  [[nodiscard]] WlConnection* connection_of_pid(kern::Pid pid);

  // --- surface lifecycle ----------------------------------------------------
  util::Result<SurfaceId> create_surface(WlClientId client, display::Rect rect);
  // xdg map: first configure acked + buffer committed; the surface joins the
  // top of the stacking order and its visibility clock (re)starts.
  util::Status map_surface(WlClientId client, SurfaceId surface);
  util::Status unmap_surface(WlClientId client, SurfaceId surface);
  // Activation raise — does NOT restart the visibility clock (the surface
  // was already visible), mirroring X11 raise_window.
  util::Status raise_surface(WlClientId client, SurfaceId surface);
  // Configure: move and/or resize; restarts the clock on a mapped surface.
  util::Status configure_surface(WlClientId client, SurfaceId surface,
                                 display::Rect rect);
  util::Status set_input_only(WlClientId client, SurfaceId surface, bool on);
  [[nodiscard]] WlSurface* surface(SurfaceId id);
  [[nodiscard]] const std::vector<SurfaceId>& stacking_order() const noexcept {
    return stacking_;  // bottom → top; the alert overlay sits above all of it
  }
  // Topmost mapped surface containing the point, or nullptr.
  [[nodiscard]] WlSurface* surface_at(int x, int y);

  // --- trusted input path ---------------------------------------------------
  void hardware_button_press(int x, int y, int button) override;
  void hardware_key_press(int keycode) override;

  // Serial provenance bookkeeping for requests that present a serial:
  // returns whether the seat minted `serial` for `client`; counts a forgery
  // (wl.input.forged_serials) when it did not. Never mints interactions.
  bool validate_serial(WlClientId client, Serial serial);

  // --- Overhaul liaison -----------------------------------------------------
  util::Decision ask_monitor(std::uint32_t client, util::Op op,
                             std::string_view detail) override;

  // --- core::DisplayBackend seam --------------------------------------------
  [[nodiscard]] core::DisplayBackendKind backend_kind() const noexcept override {
    return core::DisplayBackendKind::kWayland;
  }
  [[nodiscard]] kern::Pid server_pid() const noexcept override { return pid_; }
  util::Result<std::uint32_t> attach_client(kern::Pid pid) override {
    return connect_client(pid);
  }
  util::Result<std::uint32_t> open_surface(std::uint32_t client,
                                           display::Rect rect) override {
    return create_surface(client, rect);
  }
  util::Status show_surface(std::uint32_t client,
                            std::uint32_t surface) override {
    return map_surface(client, surface);
  }
  util::Result<display::Rect> surface_rect(std::uint32_t id) override {
    WlSurface* s = surface(id);
    if (s == nullptr)
      return util::Status(util::Code::kBadWindow, "no such surface");
    return s->rect();
  }
  display::AlertOverlay& alert_overlay() noexcept override { return alerts_; }
  [[nodiscard]] std::size_t pixel_bytes() const noexcept override;

  // --- sub-managers ---------------------------------------------------------
  [[nodiscard]] WlSeat& seat() noexcept { return seat_; }
  [[nodiscard]] WlDataDeviceManager& data_devices() noexcept { return data_; }
  [[nodiscard]] WlScreencopyManager& screencopy() noexcept {
    return screencopy_;
  }
  [[nodiscard]] display::AlertOverlay& alerts() noexcept { return alerts_; }

  struct Stats {
    std::uint64_t hardware_events = 0;
    std::uint64_t interaction_notifications = 0;
    std::uint64_t clickjack_suppressed = 0;  // hardware events w/o notification
    std::uint64_t forged_serials = 0;        // requests with bogus serials
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  // --- input trace ----------------------------------------------------------
  // Bounded record of every delivered input event, mirroring the X server's
  // trace for the core::Timeline explainability view.
  struct InputTraceEntry {
    sim::Timestamp time;
    WlEventType type = WlEventType::kPointerButton;
    kern::Pid receiver_pid = kern::kNoPid;
    SurfaceId surface = kNoSurface;
    Serial serial = kInvalidSerial;
    bool produced_notification = false;
    bool clickjack_suppressed = false;
  };
  static constexpr std::size_t kInputTraceCapacity = 10'000;
  [[nodiscard]] const std::deque<InputTraceEntry>& input_trace() const {
    return input_trace_;
  }

 private:
  friend class WlDataDeviceManager;
  friend class WlScreencopyManager;

  // Deliver a hardware input event to the owner of `surf`: mint the serial,
  // generate an interaction notification when the trusted-input checks pass.
  void deliver_input(WlEvent event, WlSurface& surf);

  // The clickjacking rule (§IV-A), identical to the X11 backend.
  [[nodiscard]] bool passes_visibility_check(const WlSurface& surf) const;

  kern::Kernel& kernel_;
  // Same confinement as the X11 backend: one compositor per simulated seat.
  OVERHAUL_SHARD_LOCAL WlCompositorConfig config_;
  OVERHAUL_SHARD_LOCAL kern::Pid pid_ = kern::kNoPid;
  OVERHAUL_SHARD_LOCAL std::shared_ptr<kern::NetlinkChannel> channel_;

  OVERHAUL_SHARD_LOCAL std::map<WlClientId, std::unique_ptr<WlConnection>>
      connections_;
  OVERHAUL_SHARD_LOCAL std::map<SurfaceId, std::unique_ptr<WlSurface>>
      surfaces_;
  OVERHAUL_SHARD_LOCAL std::vector<SurfaceId> stacking_;  // bottom → top
  OVERHAUL_SHARD_LOCAL WlClientId next_client_ = 1;
  OVERHAUL_SHARD_LOCAL SurfaceId next_surface_ = 1;

  OVERHAUL_SHARD_LOCAL WlSeat seat_;
  OVERHAUL_SHARD_LOCAL display::AlertOverlay alerts_;
  OVERHAUL_SHARD_LOCAL WlDataDeviceManager data_{*this};
  OVERHAUL_SHARD_LOCAL WlScreencopyManager screencopy_{*this};
  OVERHAUL_SHARD_LOCAL Stats stats_;
  OVERHAUL_SHARD_LOCAL std::deque<InputTraceEntry> input_trace_;

  // Pre-resolved obs handles (wl.input.*).
  OVERHAUL_SHARD_LOCAL obs::Counter* c_hw_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_notifications_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_clickjack_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_forged_serials_ = nullptr;
};

}  // namespace overhaul::wl

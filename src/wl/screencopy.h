// WlScreencopyManager: a zwlr_screencopy-style capture protocol, mediated.
//
// Wayland deliberately ships no core capture request; compositors expose a
// screencopy protocol instead. The exfiltration surface is identical to X11
// GetImage (§IV-A "Display contents"): capturing the composited output or a
// foreign client's surface moves pixels the user may consider sensitive, so
// both are mediated through the permission monitor. Capturing your own
// surface is always free, like the X11 same-owner fast path.
#pragma once

#include <cstdint>

#include "display/types.h"
#include "obs/obs.h"
#include "util/status.h"
#include "wl/connection.h"

namespace overhaul::wl {

class WlCompositor;

class WlScreencopyManager {
 public:
  explicit WlScreencopyManager(WlCompositor& comp) : comp_(comp) {}

  // Capture the whole output: every mapped surface composited in stacking
  // order — what a screenshot tool (or the §V-D spyware) asks for.
  util::Result<display::Image> capture_output(ClientId client);

  // Capture a single surface. Own surfaces are free; foreign surfaces are
  // mediated like an output capture.
  util::Result<display::Image> capture_surface(ClientId client,
                                               SurfaceId surface);

  // The composited output (no mediation — internal to the compositor).
  [[nodiscard]] display::Image composite_output() const;

  struct Stats {
    std::uint64_t captures_granted = 0;
    std::uint64_t captures_denied = 0;
    std::uint64_t own_surface_captures = 0;  // fast path, no query
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  friend class WlCompositor;

  void attach_obs(obs::Counter* granted, obs::Counter* denied) {
    c_granted_ = granted;
    c_denied_ = denied;
  }

  // Shared mediation: does `client` get pixel access to `surface`
  // (kNoSurface = the whole output)?
  util::Status authorize_capture(ClientId client, SurfaceId surface);

  WlCompositor& comp_;
  Stats stats_;
  obs::Counter* c_granted_ = nullptr;
  obs::Counter* c_denied_ = nullptr;
};

}  // namespace overhaul::wl

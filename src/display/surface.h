// Surface: one client-owned rectangle on screen — an X11 window or a
// Wayland xdg_toplevel surface. Both display servers keep the same model.
//
// Carries what the trusted input path needs for its clickjacking defense
// (§IV-A: "OVERHAUL only generates interaction notifications if the X client
// receiving the event has a valid mapped window that has stayed visible
// above a predefined time threshold") and what the screen-capture mediation
// needs (ownership, pixel buffers for GetImage/CopyArea/screencopy).
//
// The visibility clock restarts on map and on a configure that moves or
// resizes the surface: otherwise an attacker could map a surface far off in
// a corner, age it past the threshold, then teleport it under the user's
// pointer right before a click — the same harvest the map-time clock
// defends against. (A hardening beyond the paper's text; see DESIGN.md §5.)
//
// `input_only` models a surface that receives pointer events but has no
// opaque content (an X11 InputOnly/transparent window, a Wayland surface
// with an input region and no buffer): it is never *visible*, so it can
// never satisfy the visibility threshold.
#pragma once

#include <cstdint>
#include <span>

#include "display/pixel_buffer.h"
#include "display/types.h"
#include "sim/clock.h"

namespace overhaul::display {

using SurfaceId = std::uint32_t;
using ClientId = std::uint32_t;

inline constexpr SurfaceId kNoSurface = 0;

class Surface {
 public:
  Surface(SurfaceId id, ClientId owner, Rect rect)
      : id_(id), owner_(owner), rect_(rect),
        pixels_(rect.width, rect.height) {}

  [[nodiscard]] SurfaceId id() const noexcept { return id_; }
  [[nodiscard]] ClientId owner() const noexcept { return owner_; }
  [[nodiscard]] const Rect& rect() const noexcept { return rect_; }

  // Moving a mapped surface restarts the visibility clock.
  void move_to(int x, int y, sim::Timestamp now) noexcept {
    if (mapped_ && (x != rect_.x || y != rect_.y)) mapped_at_ = now;
    rect_.x = x;
    rect_.y = y;
  }
  // Resizing resets the pixel contents (like a fresh backing store or
  // wl_buffer attach) and also restarts the clock when mapped.
  void resize(int width, int height, sim::Timestamp now) noexcept {
    rect_.width = width;
    rect_.height = height;
    pixels_.resize(width, height);
    if (mapped_) mapped_at_ = now;
  }

  // --- map state & visibility clock ----------------------------------------
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }
  void map(sim::Timestamp now) noexcept {
    mapped_ = true;
    mapped_at_ = now;  // visibility clock restarts on every map
  }
  void unmap() noexcept { mapped_ = false; }

  // How long the surface has been continuously visible.
  [[nodiscard]] sim::Duration visible_for(sim::Timestamp now) const noexcept {
    if (!mapped_) return sim::Duration{0};
    return now - mapped_at_;
  }

  // --- clickjacking surface -------------------------------------------------
  [[nodiscard]] bool input_only() const noexcept { return input_only_; }
  void set_input_only(bool on) noexcept { input_only_ = on; }

  // --- pixel contents -------------------------------------------------------
  // Read access never allocates; the mutable overload is for a client that
  // draws and materialises the buffer (display::PixelBuffer).
  [[nodiscard]] const PixelBuffer& pixels() const noexcept { return pixels_; }
  [[nodiscard]] std::span<std::uint32_t> pixels() { return pixels_.pixels(); }
  void fill(std::uint32_t argb) noexcept { pixels_.fill(argb); }

 private:
  SurfaceId id_;
  ClientId owner_;
  Rect rect_;
  bool mapped_ = false;
  bool input_only_ = false;
  sim::Timestamp mapped_at_ = sim::Timestamp::never();
  PixelBuffer pixels_;
};

}  // namespace overhaul::display

// WlSurface: a committed wl_surface with an xdg_toplevel role.
//
// Carries what the trusted input path needs for the clickjacking defense —
// the same rule as x11::Window (§IV-A): interaction notifications are only
// minted for a surface that is mapped (configured + committed with a
// buffer) and has stayed visible above the threshold. The visibility clock
// restarts on map and on a configure that moves or resizes the surface,
// mirroring the X11 hardening (DESIGN.md §5): a surface aged off-screen
// cannot be teleported under the pointer right before a click.
//
// `input_only` models a surface with an input region but no opaque content
// (the Wayland analogue of an X11 input-only/transparent window): it can
// receive pointer events but is never *visible*, so it can never satisfy
// the visibility threshold.
#pragma once

#include <cstdint>
#include <span>

#include "display/pixel_buffer.h"
#include "display/types.h"
#include "sim/clock.h"

namespace overhaul::wl {

using SurfaceId = std::uint32_t;
using WlClientId = std::uint32_t;
using Serial = std::uint32_t;

inline constexpr SurfaceId kNoSurface = 0;
inline constexpr Serial kInvalidSerial = 0;

class WlSurface {
 public:
  WlSurface(SurfaceId id, WlClientId owner, display::Rect rect)
      : id_(id), owner_(owner), rect_(rect),
        pixels_(rect.width, rect.height) {}

  [[nodiscard]] SurfaceId id() const noexcept { return id_; }
  [[nodiscard]] WlClientId owner() const noexcept { return owner_; }
  [[nodiscard]] const display::Rect& rect() const noexcept { return rect_; }

  // xdg_surface configure support. Moving a mapped surface restarts the
  // visibility clock (same rationale as x11::Window::move_to).
  void move_to(int x, int y, sim::Timestamp now) noexcept {
    if (mapped_ && (x != rect_.x || y != rect_.y)) mapped_at_ = now;
    rect_.x = x;
    rect_.y = y;
  }
  // Resizing resets the contents (a fresh wl_buffer attach) and also
  // restarts the clock when mapped.
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
  [[nodiscard]] sim::Timestamp mapped_at() const noexcept { return mapped_at_; }

  // How long the surface has been continuously visible.
  [[nodiscard]] sim::Duration visible_for(sim::Timestamp now) const noexcept {
    if (!mapped_) return sim::Duration{0};
    return now - mapped_at_;
  }

  // --- clickjacking surface -------------------------------------------------
  [[nodiscard]] bool input_only() const noexcept { return input_only_; }
  void set_input_only(bool on) noexcept { input_only_ = on; }

  // --- pixel contents -------------------------------------------------------
  // Same contract as x11::Window: reads never allocate, the mutable overload
  // materialises (display::PixelBuffer).
  [[nodiscard]] const display::PixelBuffer& pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::span<std::uint32_t> pixels() { return pixels_.pixels(); }
  void fill(std::uint32_t argb) noexcept { pixels_.fill(argb); }

 private:
  SurfaceId id_;
  WlClientId owner_;
  display::Rect rect_;
  bool mapped_ = false;
  bool input_only_ = false;
  sim::Timestamp mapped_at_ = sim::Timestamp::never();
  display::PixelBuffer pixels_;
};

}  // namespace overhaul::wl

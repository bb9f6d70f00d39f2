// Backend-neutral display geometry and pixel types.
//
// Both display backends — the X11 server (src/x11/) and the Wayland-style
// compositor (src/wl/) — describe on-screen real estate with the same
// rectangle and capture results with the same ARGB32 image. Keeping the
// types here lets the core::DisplayBackend seam and the cross-backend
// differential tests talk about geometry without dragging in either
// protocol stack. These are the only definitions: neither backend declares
// a geometry or image type of its own.
#pragma once

#include <cstdint>
#include <vector>

namespace overhaul::display {

struct Rect {
  int x = 0, y = 0;
  int width = 0, height = 0;

  [[nodiscard]] bool contains(int px, int py) const noexcept {
    return px >= x && py >= y && px < x + width && py < y + height;
  }
};

struct Image {
  int width = 0;
  int height = 0;
  std::vector<std::uint32_t> pixels;  // ARGB32
};

}  // namespace overhaul::display

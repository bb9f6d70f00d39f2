// PixelBuffer: a window's or surface's ARGB32 contents, held as one solid
// colour until a writer asks for mutable pixels.
//
// Nothing in the simulated desktop draws: windows are created, mapped,
// captured and copied, and only tests paint them. An eager buffer per window
// costs its full size in memory and zero-fill time at creation (3 MiB for a
// 1024×768 X11 root window) for pixels that stay one colour. A PixelBuffer
// holds `colour_` until pixels() is called; fill() and resize() return it to
// solid form and free the storage. Readers go through read() and to_image(),
// which never materialise the buffer, so every captured or copied byte is
// the byte an eager buffer would hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "display/types.h"

namespace overhaul::display {

struct Layer;

class PixelBuffer {
 public:
  // Solid zero, like a fresh backing store.
  PixelBuffer(int width, int height) noexcept
      : width_(width), height_(height) {}

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  // Bytes of pixel storage held: 0 while the buffer is solid.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return storage_.capacity() * sizeof(std::uint32_t);
  }

  // Writable pixels, row-major. The first call materialises the solid
  // colour; the span is valid until the next fill() or resize().
  [[nodiscard]] std::span<std::uint32_t> pixels();

  // Every pixel `argb`; storage is freed.
  void fill(std::uint32_t argb) noexcept;
  // New dimensions, contents reset to solid zero; storage is freed.
  void resize(int width, int height) noexcept;

  // Copy the `n` pixels starting at row-major index `offset` to `out`.
  void read(std::size_t offset, std::size_t n, std::uint32_t* out) const;
  // The whole buffer as a capture result: composite() with no layers.
  [[nodiscard]] Image to_image() const;

 private:
  friend Image composite(const PixelBuffer& background,
                         std::span<const Layer> layers);

  int width_;
  int height_;
  std::uint32_t colour_ = 0;            // every pixel while storage_ is empty
  std::vector<std::uint32_t> storage_;  // materialised pixels, or empty
};

// A buffer placed on screen with its top-left corner at (x, y).
struct Layer {
  int x = 0;
  int y = 0;
  const PixelBuffer* pixels = nullptr;
};

// The one compositor both display backends use: `background` (which sets the
// screen size) under `layers`, stacked bottom → top, each clipped to the
// screen. Every output pixel is written once: the screen is cut into
// horizontal bands at the layers' top and bottom edges, each band's row is
// split into runs owned by the topmost layer (or the background), and the
// rows are appended run by run to an image reserved to its final size.
[[nodiscard]] Image composite(const PixelBuffer& background,
                              std::span<const Layer> layers);

}  // namespace overhaul::display

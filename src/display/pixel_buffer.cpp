#include "display/pixel_buffer.h"

#include <algorithm>
#include <cstring>

namespace overhaul::display {
namespace {

// A solid run. memset when the colour's four bytes agree (zero and white
// included); otherwise a fixed-width inner loop, which GCC vectorises at -O2
// where a runtime-length std::fill stays a scalar store loop.
void fill_run(std::uint32_t* out, std::size_t n, std::uint32_t argb) {
  const auto byte = static_cast<unsigned char>(argb);
  if (argb == byte * 0x01010101u) {
    std::memset(out, byte, n * sizeof(std::uint32_t));
    return;
  }
  constexpr std::size_t kBlock = 16;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock)
    for (std::size_t k = 0; k < kBlock; ++k) out[i + k] = argb;
  for (; i < n; ++i) out[i] = argb;
}

std::vector<std::uint32_t> solid_pixels(std::size_t n, std::uint32_t argb) {
  std::vector<std::uint32_t> px(n);  // value-initialised: a memset to zero
  if (argb != 0) fill_run(px.data(), n, argb);
  return px;
}

}  // namespace

std::span<std::uint32_t> PixelBuffer::pixels() {
  if (storage_.empty()) storage_ = solid_pixels(size(), colour_);
  return storage_;
}

void PixelBuffer::fill(std::uint32_t argb) noexcept {
  colour_ = argb;
  storage_ = std::vector<std::uint32_t>();  // move-assign: frees the storage
}

void PixelBuffer::resize(int width, int height) noexcept {
  width_ = width;
  height_ = height;
  fill(0);
}

void PixelBuffer::read(std::size_t offset, std::size_t n,
                       std::uint32_t* out) const {
  if (storage_.empty()) {
    fill_run(out, n, colour_);
  } else {
    std::memcpy(out, storage_.data() + offset, n * sizeof(std::uint32_t));
  }
}

Image PixelBuffer::to_image() const {
  return Image{width_, height_,
               storage_.empty() ? solid_pixels(size(), colour_) : storage_};
}

Image composite(const PixelBuffer& background, std::span<const Layer> layers) {
  Image img = background.to_image();
  const auto row = [](std::int64_t width, std::int64_t x, std::int64_t y) {
    return static_cast<std::size_t>(y * width + x);
  };
  for (const Layer& layer : layers) {
    const PixelBuffer& src = *layer.pixels;
    // 64-bit clipping: a client may place a window anywhere in int range.
    const std::int64_t x0 = std::max<std::int64_t>(0, layer.x);
    const std::int64_t x1 =
        std::min<std::int64_t>(img.width, std::int64_t{layer.x} + src.width());
    const std::int64_t y0 = std::max<std::int64_t>(0, layer.y);
    const std::int64_t y1 = std::min<std::int64_t>(
        img.height, std::int64_t{layer.y} + src.height());
    if (x1 <= x0) continue;
    for (std::int64_t y = y0; y < y1; ++y) {
      src.read(row(src.width(), x0 - layer.x, y - layer.y),
               static_cast<std::size_t>(x1 - x0),
               img.pixels.data() + row(img.width, x0, y));
    }
  }
  return img;
}

}  // namespace overhaul::display

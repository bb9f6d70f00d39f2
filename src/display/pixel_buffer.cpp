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

// Appends pixels to a vector reserved to its final size. A run that
// continues the pending one, in the same solid colour or from the same
// buffer where the pending copy ends, joins it, so a run of one colour
// across windows and row ends is one store, and a zero run, however long,
// one memset.
class RunWriter {
 public:
  explicit RunWriter(std::vector<std::uint32_t>& out) noexcept : out_(out) {}

  void solid(std::uint32_t argb, std::size_t n) {
    if (base_ != nullptr || argb != colour_) flush();
    base_ = nullptr;
    colour_ = argb;
    n_ += n;
  }

  // `n` pixels of `base` from index `offset` on.
  void copy(const std::uint32_t* base, std::size_t offset, std::size_t n) {
    if (base != base_ || offset != offset_ + n_) {
      flush();
      base_ = base;
      offset_ = offset;
    }
    n_ += n;
  }

  void flush() {
    if (base_ != nullptr) {
      out_.insert(out_.end(), base_ + offset_, base_ + offset_ + n_);
    } else if (colour_ == 0) {
      out_.resize(out_.size() + n_);  // value-initialised: one memset
    } else {
      // Grown and filled a chunk at a time, so the fill rewrites pixels the
      // zeroing just left in L1 instead of a whole image of them in memory.
      constexpr std::size_t kChunk = 4096;  // 16 KiB
      for (std::size_t left = n_; left > 0;) {
        const std::size_t m = std::min(left, kChunk);
        const std::size_t at = out_.size();
        out_.resize(at + m);
        fill_run(out_.data() + at, m, colour_);
        left -= m;
      }
    }
    n_ = 0;
  }

 private:
  std::vector<std::uint32_t>& out_;
  const std::uint32_t* base_ = nullptr;  // the pending copy's buffer, or null
  std::size_t offset_ = 0;               // where in it the copy starts
  std::uint32_t colour_ = 0;             // the pending solid run's colour
  std::size_t n_ = 0;                    // pixels pending
};

// A band row's stretch owned by one buffer: `n` pixels of a solid colour,
// or of the drawn pixels `base` holds from index `offset` on in the band's
// first row and `stride` further on in each row below it.
struct Run {
  std::size_t n = 0;
  std::uint32_t colour = 0;
  const std::uint32_t* base = nullptr;
  std::size_t offset = 0;
  std::size_t stride = 0;
};

}  // namespace

std::span<std::uint32_t> PixelBuffer::pixels() {
  if (storage_.empty()) storage_ = to_image().pixels;
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

Image PixelBuffer::to_image() const { return composite(*this, {}); }

Image composite(const PixelBuffer& background, std::span<const Layer> layers) {
  const std::int64_t width = background.width();
  const std::int64_t height = background.height();

  // Each layer's on-screen rectangle, clipped in 64-bit arithmetic: a client
  // may place a window anywhere in int range.
  struct Clip {
    std::int64_t x0, x1, y0, y1;
    const Layer* layer;
  };
  std::vector<Clip> clips;
  clips.reserve(layers.size());
  std::vector<std::int64_t> band_edges{0, height};
  for (const Layer& layer : layers) {
    const Clip c{std::max<std::int64_t>(0, layer.x),
                 std::min(width, std::int64_t{layer.x} + layer.pixels->width()),
                 std::max<std::int64_t>(0, layer.y),
                 std::min(height,
                          std::int64_t{layer.y} + layer.pixels->height()),
                 &layer};
    if (c.x0 >= c.x1 || c.y0 >= c.y1) continue;
    clips.push_back(c);
    band_edges.push_back(c.y0);
    band_edges.push_back(c.y1);
  }
  std::sort(band_edges.begin(), band_edges.end());
  band_edges.erase(std::unique(band_edges.begin(), band_edges.end()),
                   band_edges.end());

  const Layer screen{0, 0, &background};
  Image img{background.width(), background.height(), {}};
  img.pixels.reserve(background.size());
  RunWriter out(img.pixels);
  std::vector<const Clip*> covering;
  std::vector<std::int64_t> x_edges;
  std::vector<Run> runs;
  for (std::size_t band = 0; band + 1 < band_edges.size(); ++band) {
    const std::int64_t y0 = band_edges[band];
    const std::int64_t y1 = band_edges[band + 1];
    // Band edges include every clip's top and bottom, so a clip covers a
    // band whole or not at all.
    covering.clear();
    x_edges.assign({0, width});
    for (const Clip& c : clips) {
      if (c.y0 > y0 || c.y1 < y1) continue;
      covering.push_back(&c);
      x_edges.push_back(c.x0);
      x_edges.push_back(c.x1);
    }
    std::sort(x_edges.begin(), x_edges.end());
    x_edges.erase(std::unique(x_edges.begin(), x_edges.end()), x_edges.end());

    // Each interval between neighbouring x-edges lies wholly inside or
    // outside every covering clip; the topmost clip containing it owns it.
    runs.clear();
    for (std::size_t i = 0; i + 1 < x_edges.size(); ++i) {
      const std::int64_t x0 = x_edges[i];
      const std::int64_t x1 = x_edges[i + 1];
      const Layer* owner = &screen;
      for (auto c = covering.rbegin(); c != covering.rend(); ++c) {
        if ((*c)->x0 <= x0 && x1 <= (*c)->x1) {
          owner = (*c)->layer;
          break;
        }
      }
      const PixelBuffer& buf = *owner->pixels;
      Run run{static_cast<std::size_t>(x1 - x0), buf.colour_, nullptr, 0, 0};
      if (!buf.storage_.empty()) {
        run.base = buf.storage_.data();
        run.stride = static_cast<std::size_t>(buf.width());
        run.offset = static_cast<std::size_t>((y0 - owner->y) * buf.width() +
                                              (x0 - owner->x));
      }
      runs.push_back(run);
    }

    for (std::size_t row = 0; row < static_cast<std::size_t>(y1 - y0); ++row) {
      for (const Run& run : runs) {
        if (run.base == nullptr) {
          out.solid(run.colour, run.n);
        } else {
          out.copy(run.base, run.offset + row * run.stride, run.n);
        }
      }
    }
  }
  out.flush();
  return img;
}

}  // namespace overhaul::display

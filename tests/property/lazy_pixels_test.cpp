// Lazy pixel buffers (display::PixelBuffer) read exactly like eager ones.
//
// Compositor edge cases are checked against a per-pixel reference. Then
// seeded random scenes of 5 and 16 windows on both backends: windows at
// random rects, some partly or wholly off-screen, filled, drawn into through
// pixels(), moved, resized, unmapped, raised, transparent or input-only,
// plus X11 CopyArea and CopyPlane between them. An eager model keeps every
// window's contents as a full vector and composes the screen pixel by pixel;
// every read path must return exactly those bytes, and no read may allocate
// pixel storage.
#include "display/pixel_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "util/rng.h"

namespace overhaul {
namespace {

using core::DisplayBackendKind;
using display::Image;
using display::PixelBuffer;
using Pixels = std::vector<std::uint32_t>;

// --- PixelBuffer unit cases ---------------------------------------------------

TEST(PixelBuffer, MutableAccessYieldsTheSolidColour) {
  PixelBuffer buf(5, 3);
  buf.fill(0xFF123456u);
  EXPECT_EQ(buf.bytes(), 0u);
  const auto px = buf.pixels();
  EXPECT_EQ(Pixels(px.begin(), px.end()), Pixels(15, 0xFF123456u));
  EXPECT_EQ(buf.bytes(), 15u * 4);
}

TEST(PixelBuffer, FillAfterAWriteFreesTheStorage) {
  PixelBuffer buf(8, 8);
  buf.pixels()[3] = 0xFF0000FFu;
  EXPECT_EQ(buf.bytes(), 8u * 8 * 4);
  buf.fill(0xFFFFFFFFu);
  EXPECT_EQ(buf.bytes(), 0u);
  EXPECT_EQ(buf.to_image().pixels, Pixels(64, 0xFFFFFFFFu));
}

TEST(PixelBuffer, ResizeResetsToSolidZero) {
  PixelBuffer buf(4, 4);
  buf.fill(0xFF00FF00u);
  buf.pixels()[0] = 1;
  buf.resize(6, 2);
  EXPECT_EQ(buf.bytes(), 0u);
  const Image img = buf.to_image();
  EXPECT_EQ(img.width, 6);
  EXPECT_EQ(img.height, 2);
  EXPECT_EQ(img.pixels, Pixels(12, 0u));
}

// Solid runs take memset for byte-uniform colours and a blocked loop for the
// rest: every length around the block size reads back exactly and writes
// nothing past the run.
TEST(PixelBuffer, SolidRunsReadBackAtEveryLength) {
  for (const std::uint32_t colour :
       {0u, 0xFFFFFFFFu, 0x7F7F7F7Fu, 0xFF336699u}) {
    PixelBuffer buf(64, 1);
    buf.fill(colour);
    for (std::size_t n = 0; n <= 40; ++n) {
      Pixels out(n + 1, 0xDEADBEEFu);
      buf.read(64 - n, n, out.data());
      Pixels want(n, colour);
      want.push_back(0xDEADBEEFu);
      EXPECT_EQ(out, want) << "colour " << colour << " n " << n;
    }
  }
}

// --- compositor edge cases -----------------------------------------------------

using display::Layer;

// The screen composed pixel by pixel: each pixel read from the topmost layer
// holding it, else from the background.
Pixels reference_composite(const PixelBuffer& background,
                           const std::vector<Layer>& layers) {
  const std::int64_t w = background.width();
  const std::int64_t h = background.height();
  Pixels out(static_cast<std::size_t>(w * h));
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const PixelBuffer* src = &background;
      std::int64_t at = y * w + x;
      for (const Layer& l : layers) {
        const std::int64_t sx = x - l.x;
        const std::int64_t sy = y - l.y;
        if (sx < 0 || sy < 0 || sx >= l.pixels->width() ||
            sy >= l.pixels->height())
          continue;
        src = l.pixels;
        at = sy * l.pixels->width() + sx;
      }
      src->read(static_cast<std::size_t>(at), 1,
                &out[static_cast<std::size_t>(y * w + x)]);
    }
  }
  return out;
}

void expect_composite(const PixelBuffer& background,
                      const std::vector<Layer>& layers) {
  const Image img = display::composite(background, layers);
  EXPECT_EQ(img.width, background.width());
  EXPECT_EQ(img.height, background.height());
  EXPECT_EQ(img.pixels, reference_composite(background, layers));
}

PixelBuffer solid(int w, int h, std::uint32_t argb) {
  PixelBuffer buf(w, h);
  buf.fill(argb);
  return buf;
}

// Every pixel distinct, and distinct from every other buffer's `tag`, so a
// pixel read from the wrong buffer or offset shows.
PixelBuffer drawn(int w, int h, std::uint32_t tag) {
  PixelBuffer buf(w, h);
  const std::span<std::uint32_t> px = buf.pixels();
  for (std::size_t i = 0; i < px.size(); ++i)
    px[i] = (tag << 24) | static_cast<std::uint32_t>(i);
  return buf;
}

constexpr int kW = 24;
constexpr int kH = 10;
constexpr std::uint32_t kTeal = 0xFF008080u;  // not byte-uniform
constexpr std::uint32_t kRed = 0xFFFF0000u;

TEST(Composite, OneSurfaceCoversTheScreen) {
  const PixelBuffer bg = drawn(kW, kH, 1);
  const PixelBuffer exact = drawn(kW, kH, 2);
  const PixelBuffer wider = drawn(kW + 6, kH + 4, 3);
  const PixelBuffer flat = solid(kW, kH, kTeal);
  expect_composite(bg, {{0, 0, &exact}});
  expect_composite(bg, {{-3, -2, &wider}});
  expect_composite(bg, {{0, 0, &flat}});
  expect_composite(bg, {{0, 0, &exact}, {0, 0, &flat}});
  expect_composite(bg, {{0, 0, &flat}, {0, 0, &exact}});
}

TEST(Composite, SameRectTopWins) {
  const PixelBuffer bg = solid(kW, kH, 0);
  const PixelBuffer a = drawn(8, 4, 1);
  const PixelBuffer b = drawn(8, 4, 2);
  const PixelBuffer c = solid(8, 4, kRed);
  expect_composite(bg, {{5, 2, &a}, {5, 2, &b}});
  expect_composite(bg, {{5, 2, &b}, {5, 2, &a}});
  expect_composite(bg, {{5, 2, &a}, {5, 2, &c}});
  expect_composite(bg, {{5, 2, &c}, {5, 2, &a}});
}

TEST(Composite, OnePixelWideSurfacesAtBothEdges) {
  const PixelBuffer bg = drawn(kW, kH, 1);
  const PixelBuffer left = drawn(1, kH, 2);
  const PixelBuffer right = drawn(1, kH - 3, 3);
  const PixelBuffer left_flat = solid(1, kH, kTeal);
  const PixelBuffer right_flat = solid(1, 4, kRed);
  expect_composite(bg, {{0, 0, &left}, {kW - 1, 2, &right}});
  expect_composite(bg, {{0, 0, &left_flat}, {kW - 1, 3, &right_flat}});
  // One pixel on screen at each edge of a wider, off-screen surface.
  const PixelBuffer wide = drawn(9, 3, 4);
  expect_composite(bg, {{-8, 1, &wide}, {kW - 1, 6, &wide}});
}

TEST(Composite, SurfacesSharingAnEdge) {
  const PixelBuffer bg = solid(kW, kH, kTeal);
  const PixelBuffer a = drawn(8, 5, 1);
  const PixelBuffer b = drawn(8, 5, 2);
  const PixelBuffer red = solid(8, 5, kRed);
  const PixelBuffer red2 = solid(8, 5, kRed);
  // Side by side, one above the other, and at a shared corner.
  expect_composite(bg, {{0, 0, &a}, {8, 0, &b}, {16, 0, &red}});
  expect_composite(bg, {{3, 0, &a}, {3, 5, &b}});
  expect_composite(bg, {{4, 0, &a}, {12, 5, &b}, {12, 0, &red}});
  // Equal solid colours meeting at an edge read as one run.
  expect_composite(bg, {{2, 1, &red}, {10, 1, &red2}, {2, 6, &red2}});
  // One drawn buffer twice side by side: neighbouring copies from one
  // buffer that do not continue each other.
  expect_composite(bg, {{0, 2, &a}, {8, 2, &a}});
}

TEST(Composite, DrawnBackgroundUnderSolidSurfaces) {
  const PixelBuffer bg = drawn(kW, kH, 1);
  const PixelBuffer a = solid(7, 4, kRed);
  const PixelBuffer b = solid(5, 6, 0);
  const PixelBuffer c = solid(30, 2, 0xFFFFFFFFu);
  expect_composite(bg, {});
  expect_composite(bg, {{2, 1, &a}, {6, 3, &b}, {-3, 8, &c}});
}

// The writer joins equal-colour runs across window and row ends; long enough
// screens take the chunked fill for colours that are not byte-uniform.
TEST(Composite, EqualColourRunsMeetAcrossRowEnds) {
  for (const std::uint32_t colour : {0u, kTeal, 0x80808080u}) {
    SCOPED_TRACE(colour);
    const PixelBuffer bg = solid(100, 60, colour);
    const PixelBuffer right = solid(7, 60, colour);
    const PixelBuffer left = solid(5, 40, colour);
    const PixelBuffer other = solid(10, 10, kRed);
    const PixelBuffer mid = drawn(6, 20, 2);
    const PixelBuffer edge = drawn(3, 8, 3);
    // Nothing but one colour under and in every window.
    expect_composite(bg, {{93, 0, &right}, {0, 10, &left}});
    // A drawn run between the equal runs, and a drawn run at a row end.
    expect_composite(bg, {{93, 0, &right}, {0, 10, &left}, {40, 5, &mid}});
    expect_composite(bg, {{93, 0, &right}, {97, 30, &edge}, {0, 20, &other}});
    // One row of another colour between runs of the screen colour.
    const PixelBuffer stripe = solid(100, 1, kRed);
    expect_composite(bg, {{0, 30, &stripe}});
  }
}

TEST(Composite, StackOfSixteenSurfaces) {
  for (const std::uint64_t seed : {3u, 11u, 2024u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const PixelBuffer bg =
        rng.chance(0.5) ? drawn(64, 48, 1) : solid(64, 48, kTeal);
    std::vector<PixelBuffer> bufs;
    for (std::uint32_t i = 0; i < 16; ++i) {
      const int w = static_cast<int>(rng.uniform(1, 40));
      const int h = static_cast<int>(rng.uniform(1, 30));
      bufs.push_back(rng.chance(0.5) ? drawn(w, h, i + 2)
                                     : solid(w, h, rng.chance(0.3) ? kRed : i));
    }
    std::vector<Layer> layers;
    for (const PixelBuffer& buf : bufs) {
      layers.push_back({static_cast<int>(rng.uniform(-20, 70)),
                        static_cast<int>(rng.uniform(-15, 50)), &buf});
    }
    expect_composite(bg, layers);
  }
}

// --- seeded scenes --------------------------------------------------------------

constexpr int kScreenW = 256;
constexpr int kScreenH = 192;

std::size_t area(const display::Rect& r) {
  return static_cast<std::size_t>(r.width) * static_cast<std::size_t>(r.height);
}

// Byte-uniform colours take the memset path, the rest the blocked loop.
std::uint32_t random_colour(util::Rng& rng) {
  static constexpr std::uint32_t kUniform[] = {0u, 0xFFFFFFFFu, 0x80808080u};
  return rng.chance(0.3) ? kUniform[rng.next_below(3)]
                         : static_cast<std::uint32_t>(rng.next_u64());
}

// Anywhere from wholly past one screen edge to wholly on screen.
display::Rect random_rect(util::Rng& rng) {
  const int w = static_cast<int>(rng.uniform(1, 120));
  const int h = static_cast<int>(rng.uniform(1, 90));
  return {static_cast<int>(rng.uniform(-w - 10, kScreenW + 10)),
          static_cast<int>(rng.uniform(-h - 10, kScreenH + 10)), w, h};
}

class Scene {
 public:
  Scene(DisplayBackendKind backend, std::uint64_t seed, int windows)
      : sys_(config(backend)), rng_(seed) {
    if (backend == DisplayBackendKind::kX11) {
      x_ = &sys_.xserver();
      eager_[x11::kRootWindow] = Pixels(kScreenW * kScreenH, 0u);
    } else {
      wl_ = &sys_.compositor();
    }
    for (int i = 0; i < windows; ++i) {
      const std::string name = "app" + std::to_string(i);
      const display::Rect r = random_rect(rng_);
      apps_.push_back(
          sys_.launch_gui_app("/usr/bin/" + name, name, r, /*settle=*/false)
              .value());
      eager_[apps_.back().window] = Pixels(area(r), 0u);
    }
  }

  // One random request against a random app window.
  void step() {
    const auto& app = apps_[rng_.next_below(apps_.size())];
    Pixels& px = eager_.at(app.window);
    switch (rng_.next_below(x_ != nullptr ? 9 : 7)) {
      case 0: {
        const std::uint32_t c = random_colour(rng_);
        fill(app.window, c);
        std::fill(px.begin(), px.end(), c);
        break;
      }
      case 1:
        draw(app.window);
        break;
      case 2: {
        const display::Rect old = rect(app.window);
        display::Rect r = random_rect(rng_);
        if (rng_.chance(0.5)) {
          r.width = old.width;
          r.height = old.height;
        }
        configure(app, r);
        if (r.width != old.width || r.height != old.height)
          px.assign(area(r), 0u);
        break;
      }
      case 3:
        unmap(app);
        break;
      case 4:
        ASSERT_TRUE(sys_.display().show_surface(app.client, app.window).is_ok());
        break;
      case 5:
        raise(app);  // refused while unmapped; that is part of the scene
        break;
      case 6:
        toggle_hidden(app);
        break;
      case 7:  // X11: the root window is the background
        if (rng_.chance(0.5)) {
          const std::uint32_t c = random_colour(rng_);
          x_->surface(x11::kRootWindow)->fill(c);
          Pixels& root = eager_.at(x11::kRootWindow);
          std::fill(root.begin(), root.end(), c);
        } else {
          draw(x11::kRootWindow);
        }
        break;
      case 8:
        copy_into(app);
        break;
    }
  }

  // Every read path against the eager model; none may allocate.
  void check_reads() {
    const std::size_t held = sys_.display().pixel_bytes();
    const Pixels screen = reference_screen();
    const auto& first = apps_.front();
    if (x_ != nullptr) {
      x11::ScreenResources& scr = x_->screen();
      EXPECT_EQ(scr.composite_screen().pixels, screen);
      EXPECT_EQ(scr.get_image(first.client, x11::kRootWindow).value().pixels,
                screen);
      for (const auto& app : apps_) {
        EXPECT_EQ(scr.get_image(app.client, app.window).value().pixels,
                  eager_.at(app.window));
      }
      EXPECT_EQ(xshm(first, x11::kRootWindow), screen);
      const auto& other = apps_[rng_.next_below(apps_.size())];
      EXPECT_EQ(xshm(other, other.window), eager_.at(other.window));
    } else {
      wl::WlScreencopyManager& shot = wl_->screencopy();
      EXPECT_EQ(shot.composite_output().pixels, screen);
      EXPECT_EQ(shot.capture_output(first.client).value().pixels, screen);
      for (const auto& app : apps_) {
        EXPECT_EQ(shot.capture_surface(app.client, app.window).value().pixels,
                  eager_.at(app.window));
      }
    }
    EXPECT_EQ(sys_.display().pixel_bytes(), held)
        << "a read allocated pixel storage";
  }

 private:
  // Baseline: every capture is granted, so bytes, not mediation, are tested.
  static core::OverhaulConfig config(DisplayBackendKind backend) {
    core::OverhaulConfig cfg = core::OverhaulConfig::baseline();
    cfg.display_backend = backend;
    cfg.screen_width = kScreenW;
    cfg.screen_height = kScreenH;
    return cfg;
  }

  [[nodiscard]] display::Rect rect(std::uint32_t id) {
    return sys_.display().surface_rect(id).value();
  }

  void fill(std::uint32_t id, std::uint32_t c) {
    sys_.display().surface(id)->fill(c);
  }

  // A client drawing a few pixels through the mutable accessor.
  void draw(std::uint32_t id) {
    const std::span<std::uint32_t> live = sys_.display().surface(id)->pixels();
    Pixels& px = eager_.at(id);
    for (int k = 0; k < 8; ++k) {
      const std::size_t i = rng_.next_below(live.size());
      live[i] = px[i] = random_colour(rng_);
    }
  }

  void configure(const core::OverhaulSystem::AppHandle& app, display::Rect r) {
    const util::Status s =
        sys_.display().configure_surface(app.client, app.window, r);
    ASSERT_TRUE(s.is_ok()) << s.message();
  }

  void unmap(const core::OverhaulSystem::AppHandle& app) {
    const util::Status s =
        sys_.display().hide_surface(app.client, app.window);
    ASSERT_TRUE(s.is_ok()) << s.message();
  }

  void raise(const core::OverhaulSystem::AppHandle& app) {
    (void)sys_.display().raise_surface(app.client, app.window);
  }

  void toggle_hidden(const core::OverhaulSystem::AppHandle& app) {
    core::DisplayBackend& display = sys_.display();
    const util::Status s = display.set_input_only(
        app.client, app.window, !display.surface(app.window)->input_only());
    ASSERT_TRUE(s.is_ok()) << s.message();
  }

  // X11 CopyArea or CopyPlane from a random window (or the root) into the
  // app's own window: a read of the source, a write of the destination.
  void copy_into(const core::OverhaulSystem::AppHandle& app) {
    const std::uint32_t src =
        rng_.chance(0.25) ? x11::kRootWindow
                          : apps_[rng_.next_below(apps_.size())].window;
    const Pixels from = eager_.at(src);
    Pixels& to = eager_.at(app.window);
    const std::size_t n = std::min(from.size(), to.size());
    if (rng_.chance(0.5)) {
      ASSERT_TRUE(x_->screen().copy_area(app.client, src, app.window).is_ok());
      std::copy_n(from.begin(), n, to.begin());
    } else {
      const auto plane = static_cast<unsigned>(rng_.next_below(32));
      ASSERT_TRUE(
          x_->screen().copy_plane(app.client, src, app.window, plane).is_ok());
      const std::uint32_t mask = 1u << plane;
      for (std::size_t i = 0; i < n; ++i)
        to[i] = (to[i] & ~mask) | (from[i] & mask);
    }
  }

  // XShmGetImage into a screen-sized segment mapped by the app's process.
  Pixels xshm(const core::OverhaulSystem::AppHandle& app, std::uint32_t id) {
    kern::Kernel& k = sys_.kernel();
    const std::size_t bytes = kScreenW * kScreenH * sizeof(std::uint32_t);
    auto seg = k.posix_shms().open("/scene", /*create=*/true, bytes).value();
    auto map = k.sys_mmap_shared(app.pid, seg).value();
    const auto written = x_->screen().xshm_get_image(app.client, id, *map);
    if (!written.is_ok()) {
      ADD_FAILURE() << written.status().message();
      return {};
    }
    Pixels out(written.value() / sizeof(std::uint32_t));
    std::memcpy(out.data(), seg->data(), written.value());
    return out;
  }

  // The screen composed pixel by pixel from the eager model, bottom → top.
  [[nodiscard]] Pixels reference_screen() {
    Pixels out = x_ != nullptr ? eager_.at(x11::kRootWindow)
                               : Pixels(kScreenW * kScreenH, 0u);
    for (const std::uint32_t id : sys_.display().stacking_order()) {
      const display::Surface* surf = sys_.display().surface(id);
      if (!surf->mapped() || surf->input_only()) continue;
      const display::Rect r = rect(id);
      const Pixels& px = eager_.at(id);
      for (int y = 0; y < r.height; ++y) {
        for (int x = 0; x < r.width; ++x) {
          const int sx = r.x + x;
          const int sy = r.y + y;
          if (sx < 0 || sy < 0 || sx >= kScreenW || sy >= kScreenH) continue;
          out[static_cast<std::size_t>(sy) * kScreenW + sx] =
              px[static_cast<std::size_t>(y) * r.width + x];
        }
      }
    }
    return out;
  }

  core::OverhaulSystem sys_;
  util::Rng rng_;
  x11::XServer* x_ = nullptr;
  wl::WlCompositor* wl_ = nullptr;
  std::vector<core::OverhaulSystem::AppHandle> apps_;
  std::map<std::uint32_t, Pixels> eager_;  // window id → full contents
};

class LazyPixels
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, DisplayBackendKind>> {};

// Each seed and backend replays a 5-window scene and a 16-window one.
TEST_P(LazyPixels, EveryReadPathMatchesTheEagerModel) {
  const auto [seed, backend] = GetParam();
  for (const int windows : {5, 16}) {
    SCOPED_TRACE(std::to_string(windows) + " windows");
    Scene scene(backend, seed, windows);
    scene.check_reads();
    for (int step = 0; step < 60; ++step) {
      scene.step();
      scene.check_reads();
      if (HasFailure()) FAIL() << "diverged at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBackends, LazyPixels,
    ::testing::Combine(::testing::Values(1u, 7u, 1234u, 987654321u),
                       ::testing::Values(DisplayBackendKind::kX11,
                                         DisplayBackendKind::kWayland)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(core::display_backend_name(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace overhaul

// Lazy pixel buffers (display::PixelBuffer) read exactly like eager ones.
//
// Seeded random scenes on both backends: windows at random rects, some
// partly or wholly off-screen, filled, drawn into through pixels(), moved,
// resized, unmapped, raised, transparent or input-only, plus X11 CopyArea
// and CopyPlane between them. An eager model keeps every window's contents
// as a full vector and composes the screen pixel by pixel; every read path
// must return exactly those bytes, and no read may allocate pixel storage.
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
  Scene(DisplayBackendKind backend, std::uint64_t seed)
      : sys_(config(backend)), rng_(seed) {
    if (backend == DisplayBackendKind::kX11) {
      x_ = &sys_.xserver();
      eager_[x11::kRootWindow] = Pixels(kScreenW * kScreenH, 0u);
    } else {
      wl_ = &sys_.compositor();
    }
    for (int i = 0; i < 5; ++i) {
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
          x_->window(x11::kRootWindow)->fill(c);
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
    if (x_ != nullptr) {
      x_->window(id)->fill(c);
    } else {
      wl_->surface(id)->fill(c);
    }
  }

  // A client drawing a few pixels through the mutable accessor.
  void draw(std::uint32_t id) {
    const std::span<std::uint32_t> live =
        x_ != nullptr ? x_->window(id)->pixels() : wl_->surface(id)->pixels();
    Pixels& px = eager_.at(id);
    for (int k = 0; k < 8; ++k) {
      const std::size_t i = rng_.next_below(live.size());
      live[i] = px[i] = random_colour(rng_);
    }
  }

  void configure(const core::OverhaulSystem::AppHandle& app, display::Rect r) {
    const util::Status s =
        x_ != nullptr ? x_->configure_window(app.client, app.window, r)
                      : wl_->configure_surface(app.client, app.window, r);
    ASSERT_TRUE(s.is_ok()) << s.message();
  }

  void unmap(const core::OverhaulSystem::AppHandle& app) {
    const util::Status s = x_ != nullptr
                               ? x_->unmap_window(app.client, app.window)
                               : wl_->unmap_surface(app.client, app.window);
    ASSERT_TRUE(s.is_ok()) << s.message();
  }

  void raise(const core::OverhaulSystem::AppHandle& app) {
    (void)(x_ != nullptr ? x_->raise_window(app.client, app.window)
                         : wl_->raise_surface(app.client, app.window));
  }

  void toggle_hidden(const core::OverhaulSystem::AppHandle& app) {
    const util::Status s =
        x_ != nullptr
            ? x_->set_transparent(app.client, app.window,
                                  !x_->window(app.window)->transparent())
            : wl_->set_input_only(app.client, app.window,
                                  !wl_->surface(app.window)->input_only());
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
    const std::vector<std::uint32_t>& order =
        x_ != nullptr ? x_->stacking_order() : wl_->stacking_order();
    for (const std::uint32_t id : order) {
      const bool visible =
          x_ != nullptr
              ? id != x11::kRootWindow && x_->window(id)->mapped() &&
                    !x_->window(id)->transparent()
              : wl_->surface(id)->mapped() && !wl_->surface(id)->input_only();
      if (!visible) continue;
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

TEST_P(LazyPixels, EveryReadPathMatchesTheEagerModel) {
  const auto [seed, backend] = GetParam();
  Scene scene(backend, seed);
  scene.check_reads();
  for (int step = 0; step < 60; ++step) {
    scene.step();
    scene.check_reads();
    if (HasFailure()) FAIL() << "diverged at step " << step;
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

#include "x11/screen.h"

#include <algorithm>
#include <utility>

#include "x11/server.h"

namespace overhaul::x11 {

using util::Code;
using util::Decision;
using util::Op;
using util::Result;
using util::Status;

Status ScreenResources::authorize_capture(ClientId client, WindowId window_id) {
  display::Surface* win = server_.surface(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");

  // Capturing your own window is always fine; the root window and foreign
  // windows require the input-correlation check.
  if (window_id != kRootWindow && win->owner() == client) return Status::ok();

  if (!server_.overhaul_enabled()) return Status::ok();  // unmodified server

  const Decision d = server_.ask_monitor(
      client, Op::kScreenCapture,
      window_id == kRootWindow ? "root" : "window " + std::to_string(window_id));
  if (d == Decision::kDeny) {
    ++stats_.captures_denied;
    return Status(Code::kBadAccess, "screen capture not preceded by input");
  }
  ++stats_.captures_granted;
  return Status::ok();
}

display::Image ScreenResources::composite_screen() const {
  // The root window's buffer is the background; mapped windows stack over
  // it bottom → top.
  std::vector<display::Layer> layers;
  for (WindowId wid : server_.stacking_order()) {
    const display::Surface* win = server_.surface(wid);
    if (wid == kRootWindow || win == nullptr || !win->mapped() ||
        win->input_only())
      continue;
    layers.push_back({win->rect().x, win->rect().y, &win->pixels()});
  }
  const display::Surface* root = server_.surface(kRootWindow);
  return display::composite(root->pixels(), layers);
}

display::Image ScreenResources::capture(WindowId window_id) const {
  if (window_id == kRootWindow) return composite_screen();
  const display::Surface* win = server_.surface(window_id);
  return win->pixels().to_image();
}

Result<display::Image> ScreenResources::get_image(ClientId client,
                                                  WindowId window_id) {
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    XClient* c = server_.client(client);
    span = tracer.span("Screen::get_image", "x11",
                       c != nullptr ? c->pid() : 0);
    span.arg("window", std::to_string(window_id));
  }
  if (auto s = authorize_capture(client, window_id); !s.is_ok()) return s;
  return capture(window_id);
}

Result<std::size_t> ScreenResources::xshm_get_image(ClientId client,
                                                    WindowId window_id,
                                                    kern::ShmMapping& dst) {
  obs::Tracer::Span span;
  if (auto& tracer = server_.obs().tracer; tracer.enabled()) {
    XClient* c = server_.client(client);
    span = tracer.span("Screen::xshm_get_image", "x11",
                       c != nullptr ? c->pid() : 0);
    span.arg("window", std::to_string(window_id));
  }
  if (auto s = authorize_capture(client, window_id); !s.is_ok()) return s;

  // The root window spans the screen, so its size is the composite's.
  const display::Surface* win = server_.surface(window_id);
  const std::size_t bytes = win->pixels().size() * sizeof(std::uint32_t);
  if (bytes > dst.segment()->size())
    return Status(Code::kInvalidArgument, "shm segment too small for image");
  const display::Image img = capture(window_id);

  // Write through the X server's own task so the kernel page-fault
  // interposition sees the transfer like any other shared-memory IPC.
  kern::TaskStruct* server_task =
      server_.kernel().processes().lookup_live(server_.server_pid());
  if (server_task == nullptr)
    return Status(Code::kNotFound, "X server task missing");
  if (auto s = dst.write(*server_task, 0, img.pixels.data(), bytes);
      !s.is_ok())
    return s;
  return bytes;
}

Status ScreenResources::copy_area(ClientId client, WindowId src_id,
                                  WindowId dst_id) {
  display::Surface* src = server_.surface(src_id);
  display::Surface* dst = server_.surface(dst_id);
  if (src == nullptr || dst == nullptr)
    return Status(Code::kBadWindow, "copy_area: bad window");
  if (dst->owner() != client)
    return Status(Code::kBadAccess, "copy_area: destination not owned");

  // §IV-A: "If the owners of both buffers are identical ... the request is
  // allowed to proceed" — no permission query for a self-copy.
  if (src_id != kRootWindow && src->owner() == dst->owner()) {
    ++stats_.same_owner_copies;
  } else if (auto s = authorize_capture(client, src_id); !s.is_ok()) {
    return s;
  }

  if (src != dst) {
    const display::PixelBuffer& from = std::as_const(*src).pixels();
    const std::span<std::uint32_t> to = dst->pixels();
    from.read(0, std::min(from.size(), to.size()), to.data());
  }
  return Status::ok();
}

Status ScreenResources::copy_plane(ClientId client, WindowId src_id,
                                   WindowId dst_id, unsigned plane) {
  if (plane >= 32)
    return Status(Code::kInvalidArgument, "copy_plane: bad plane");
  display::Surface* src = server_.surface(src_id);
  display::Surface* dst = server_.surface(dst_id);
  if (src == nullptr || dst == nullptr)
    return Status(Code::kBadWindow, "copy_plane: bad window");
  if (dst->owner() != client)
    return Status(Code::kBadAccess, "copy_plane: destination not owned");

  if (src_id != kRootWindow && src->owner() == dst->owner()) {
    ++stats_.same_owner_copies;
  } else if (auto s = authorize_capture(client, src_id); !s.is_ok()) {
    return s;
  }

  const std::uint32_t mask = 1u << plane;
  const display::PixelBuffer& from = std::as_const(*src).pixels();
  const std::span<std::uint32_t> to = dst->pixels();
  std::vector<std::uint32_t> bits(std::min(from.size(), to.size()));
  from.read(0, bits.size(), bits.data());
  for (std::size_t i = 0; i < bits.size(); ++i)
    to[i] = (to[i] & ~mask) | (bits[i] & mask);
  return Status::ok();
}

}  // namespace overhaul::x11

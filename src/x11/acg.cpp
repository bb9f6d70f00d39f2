#include "x11/acg.h"

#include "x11/server.h"

namespace overhaul::x11 {

using util::Code;
using util::Status;

Status AcgManager::register_gadget(ClientId client, WindowId window_id,
                                   display::Rect rect, util::Op op) {
  const display::Surface* win = server_.surface(window_id);
  if (win == nullptr) return Status(Code::kBadWindow, "no such window");
  if (win->owner() != client)
    return Status(Code::kBadAccess, "gadget on foreign window");
  if (rect.width <= 0 || rect.height <= 0 ||
      rect.x + rect.width > win->rect().width ||
      rect.y + rect.height > win->rect().height || rect.x < 0 || rect.y < 0)
    return Status(Code::kInvalidArgument, "gadget outside window bounds");
  gadgets_.push_back(Gadget{client, window_id, rect, op});
  return Status::ok();
}

std::optional<util::Op> AcgManager::gadget_hit(const display::Surface& win,
                                               int x, int y) const {
  const int rel_x = x - win.rect().x;
  const int rel_y = y - win.rect().y;
  for (const Gadget& g : gadgets_) {
    if (g.window == win.id() && g.rect.contains(rel_x, rel_y)) return g.op;
  }
  return std::nullopt;
}

void AcgManager::unregister_window(WindowId window) {
  std::erase_if(gadgets_,
                [&](const Gadget& g) { return g.window == window; });
}

}  // namespace overhaul::x11

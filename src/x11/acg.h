// AcgManager: an Access-Control-Gadget (ACG) comparison baseline.
//
// Roesner et al. [27] — the paper's main point of comparison — build
// permission granting into *specific UI elements*: clicking the camera
// gadget grants exactly the camera, to exactly that app. The paper argues
// its own input-driven model trades that precision for transparency
// ("strictly weaker security guarantees than prior work on user-driven
// access control", §III-E), since ANY recent input unlocks ANY resource for
// the clicked app within δ.
//
// This module implements the ACG model on top of the same trusted input
// path so the two can be compared head-to-head (bench_ablation_precision):
// applications register gadget rectangles bound to one operation; only
// hardware clicks inside a gadget create an op-specific grant. Unmodified
// applications (the common case on a traditional OS!) have no gadgets and
// can never be granted anything — the deployment gap Overhaul closes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "display/surface.h"
#include "display/types.h"
#include "util/audit_log.h"
#include "util/status.h"
#include "x11/client.h"

namespace overhaul::x11 {

class XServer;

struct Gadget {
  ClientId client = 0;
  WindowId window = kNoWindow;
  display::Rect rect;   // window-relative
  util::Op op = util::Op::kDeviceOther;
};

class AcgManager {
 public:
  explicit AcgManager(XServer& server) : server_(server) {}

  // Application-side registration (this is the source-modification ACGs
  // require). The rect is relative to the window's origin; owner-only.
  util::Status register_gadget(ClientId client, WindowId window,
                               display::Rect rect,
                               util::Op op);

  // Input-dispatch hook: called for hardware clicks that passed the
  // trusted-input checks. If (x, y) — screen coordinates — lands in a
  // gadget of `win`, reports the op-specific grant; returns the op hit.
  std::optional<util::Op> gadget_hit(const display::Surface& win, int x,
                                     int y) const;

  [[nodiscard]] std::size_t gadget_count() const noexcept {
    return gadgets_.size();
  }
  void unregister_window(WindowId window);

 private:
  XServer& server_;
  std::vector<Gadget> gadgets_;
};

}  // namespace overhaul::x11

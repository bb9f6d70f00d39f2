// Wayland client protocol vocabulary: serials, events, and WlConnection —
// a display::QueuedClient of WlEvents that also remembers the *last input
// serial* the compositor delivered to it. Well-behaved toolkits echo that
// serial back on requests that claim to be user-initiated
// (wl_data_device.set_selection); the seat validates the echo. A client
// that never received input has no serial to present — only a forged one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "display/client.h"
#include "display/surface.h"

namespace overhaul::wl {

using display::ClientId;
using display::kNoSurface;
using display::SurfaceId;
using Serial = std::uint32_t;

inline constexpr Serial kInvalidSerial = 0;

enum class WlEventType : std::uint8_t {
  kPointerButton,    // wl_pointer.button (with enter implied)
  kKeyboardKey,      // wl_keyboard.key
  kKeyboardEnter,    // keyboard focus gained (carries the selection offer)
  kSurfaceConfigure, // xdg_surface.configure
  kDataOffer,        // wl_data_device.data_offer + selection
  kDataSendRequest,  // wl_data_source.send: produce the data for a mime type
};

struct WlEvent {
  WlEventType type = WlEventType::kPointerButton;
  Serial serial = kInvalidSerial;  // compositor-minted; 0 for non-input events
  SurfaceId surface = kNoSurface;

  // Input payload.
  int keycode = 0;
  int button = 0;
  int x = 0, y = 0;

  // Data-device payload.
  std::string mime;                      // send request target type
  std::vector<std::string> mime_types;   // offer advertisement
};

class WlConnection final : public display::QueuedClient<WlEvent> {
 public:
  using QueuedClient::QueuedClient;

  // The serial of the last hardware input event the compositor delivered to
  // this client (what a toolkit would present with set_selection).
  [[nodiscard]] Serial last_input_serial() const noexcept {
    return last_input_serial_;
  }
  void note_input_serial(Serial serial) noexcept {
    last_input_serial_ = serial;
  }

 private:
  Serial last_input_serial_ = kInvalidSerial;
};

}  // namespace overhaul::wl

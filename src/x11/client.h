// X11 client protocol vocabulary: window ids, atoms, events, event masks and
// the provenance tag, and XClient — a display::QueuedClient of XEvents.
#pragma once

#include <cstdint>
#include <type_traits>

#include "display/client.h"
#include "display/surface.h"

namespace overhaul::x11 {

using WindowId = display::SurfaceId;
using ClientId = display::ClientId;

inline constexpr WindowId kNoWindow = display::kNoSurface;
inline constexpr WindowId kRootWindow = 1;
inline constexpr ClientId kServerClient = 0;  // the server itself

// X names selections, properties and targets by 32-bit atoms, interned
// through the server's AtomRegistry (x11/wire.h); None is atom 0.
using Atom = std::uint32_t;
inline constexpr Atom kAtomNone = 0;

enum class EventType : std::uint8_t {
  kKeyPress,
  kButtonPress,
  kSelectionRequest,  // server → selection owner: produce the data
  kSelectionNotify,   // owner → requestor: data is ready
  kPropertyNotify,    // property created/changed on a window
  kMapNotify,         // StructureNotify family
  kUnmapNotify,
  kConfigureNotify,
};

// SelectInput masks: which event families a client wants delivered for a
// given window. Any client may select on any window (core X semantics —
// exactly the snooping surface Overhaul polices for in-flight clipboard
// properties). Input events (key/button) are delivered to the window owner
// through the trusted input path and are not selectable by other clients.
enum EventMask : std::uint32_t {
  kNoEventMask = 0,
  kPropertyChangeMask = 1u << 0,
  kStructureNotifyMask = 1u << 1,
};

// Where an input event came from — the provenance tag §IV-A adds to the X
// server ("it was necessary to modify the X server to tag events with the
// extension or driver that generated the event").
enum class Provenance : std::uint8_t {
  kHardware,   // real input driver
  kSendEvent,  // core-protocol SendEvent (synthetic flag set on the wire)
  kXTest,      // XTEST extension fake input
};

struct XEvent {
  EventType type = EventType::kKeyPress;
  Provenance provenance = Provenance::kHardware;
  bool synthetic_flag = false;  // the SendEvent wire-format flag
  WindowId window = kNoWindow;  // delivery window

  // Input payload.
  int keycode = 0;
  int button = 0;
  int x = 0, y = 0;

  // Selection payload.
  Atom selection = kAtomNone;  // e.g. CLIPBOARD, PRIMARY
  Atom property = kAtomNone;   // the property carrying the data
  Atom target = kAtomNone;     // requested conversion target, e.g. STRING,
                               // UTF8_STRING, or TARGETS (ICCCM negotiation)
  WindowId requestor = kNoWindow;
};
// Events are plain records: queueing, pumping and the wire copy them whole.
static_assert(std::is_trivially_copyable_v<XEvent> && sizeof(XEvent) <= 48);

// A connected client: kernel-verified pid and its XEvent queue.
using XClient = display::QueuedClient<XEvent>;

}  // namespace overhaul::x11

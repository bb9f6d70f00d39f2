// Wire codec for the X11-like protocol.
//
// Real X11 events travel as fixed 32-byte records whose first byte carries
// the event code — with the top bit set when the event was produced by
// SendEvent. That bit is the "flag set that indicates that the event is
// synthetic" the paper's trusted-input filter checks (§IV-A): it is part of
// the wire format, so a client cannot ship a synthetic event without it.
//
// Selections, properties and targets travel as atoms (x11::Atom), which
// AtomRegistry interns and names, with the usual predefined atoms below 100.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "x11/client.h"

namespace overhaul::x11 {

class AtomRegistry {
 public:
  // InternAtom: existing name → its atom; new name → fresh atom. The empty
  // name is None.
  Atom intern(std::string_view name);
  // GetAtomName. kBadAtom for unknown atoms.
  util::Result<std::string> name(Atom atom) const;
  // The name without a copy; empty for None and for unknown atoms. Valid
  // for the registry's lifetime.
  [[nodiscard]] std::string_view view(Atom atom) const noexcept;
  // Whether `atom` is None or names something.
  [[nodiscard]] bool known(Atom atom) const noexcept {
    return atom == kAtomNone || !view(atom).empty();
  }

  // Predefined plus interned atoms.
  [[nodiscard]] std::size_t size() const noexcept;

  // Predefined atoms (a subset of the X11 list).
  static constexpr Atom kPrimary = 1;
  static constexpr Atom kSecondary = 2;
  static constexpr Atom kClipboard = 3;
  static constexpr Atom kString = 31;
  static constexpr Atom kIncr = 32;
  static constexpr Atom kTargets = 33;

 private:
  // Interned names only: the predefined ones live in one static table, so
  // an empty registry owns no heap memory. Each name stays where it was
  // first stored, which keeps views of it valid and makes the registry
  // move-only. Index = atom - kFirstDynamic.
  std::vector<std::unique_ptr<const std::string>> names_;
  std::map<std::string_view, Atom> by_name_;  // keys view names_
  static constexpr Atom kFirstDynamic = 100;
};

namespace wire {

inline constexpr std::size_t kEventSize = 32;
using EventRecord = std::array<std::uint8_t, kEventSize>;

// The wire synthetic bit (top bit of the event-code byte).
inline constexpr std::uint8_t kSyntheticBit = 0x80;

// Serialize an event; its atoms are copied as they are.
EventRecord encode_event(const XEvent& event);

// Parse a record. Fails with kBadRequest on an unknown event code or
// provenance tag and with kBadAtom on an atom `atoms` does not know (both
// sides of a connection share the server's registry).
util::Result<XEvent> decode_event(const EventRecord& record,
                                  const AtomRegistry& atoms);

}  // namespace wire

}  // namespace overhaul::x11

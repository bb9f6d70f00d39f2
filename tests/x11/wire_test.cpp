// Wire codec tests: atom interning and the 32-byte event records whose
// top bit is the SendEvent synthetic flag.
#include "x11/wire.h"

#include <gtest/gtest.h>

namespace overhaul::x11 {
namespace {

using util::Code;

TEST(AtomRegistry, PredefinedAtoms) {
  AtomRegistry atoms;
  EXPECT_EQ(atoms.intern("CLIPBOARD"), AtomRegistry::kClipboard);
  EXPECT_EQ(atoms.intern("PRIMARY"), AtomRegistry::kPrimary);
  EXPECT_EQ(atoms.intern("INCR"), AtomRegistry::kIncr);
  EXPECT_EQ(atoms.intern("TARGETS"), AtomRegistry::kTargets);
  EXPECT_EQ(atoms.name(AtomRegistry::kClipboard).value(), "CLIPBOARD");
  EXPECT_EQ(atoms.view(AtomRegistry::kString), "STRING");
  EXPECT_EQ(atoms.view(AtomRegistry::kTargets), "TARGETS");
}

TEST(AtomRegistry, InternIsStable) {
  AtomRegistry atoms;
  const Atom a = atoms.intern("MY_PROPERTY");
  EXPECT_EQ(atoms.intern("MY_PROPERTY"), a);
  EXPECT_NE(atoms.intern("OTHER"), a);
  EXPECT_EQ(atoms.name(a).value(), "MY_PROPERTY");
  EXPECT_EQ(atoms.view(a), "MY_PROPERTY");
}

TEST(AtomRegistry, ViewsSurviveLaterInterns) {
  AtomRegistry atoms;
  const Atom a = atoms.intern("P");  // short enough for in-place storage
  const std::string_view before = atoms.view(a);
  for (int i = 0; i < 64; ++i) atoms.intern("ATOM_" + std::to_string(i));
  EXPECT_EQ(atoms.view(a).data(), before.data());
  EXPECT_EQ(before, "P");
}

TEST(AtomRegistry, UnknownAtomIsBadAtom) {
  AtomRegistry atoms;
  EXPECT_EQ(atoms.name(0xDEAD).code(), Code::kBadAtom);
  EXPECT_EQ(atoms.name(7).code(), Code::kBadAtom);  // unassigned predefined
  EXPECT_TRUE(atoms.view(0xDEAD).empty());
  EXPECT_FALSE(atoms.known(0xDEAD));
}

TEST(AtomRegistry, NoneAtomIsEmptyName) {
  AtomRegistry atoms;
  EXPECT_EQ(atoms.name(kAtomNone).value(), "");
  EXPECT_TRUE(atoms.view(kAtomNone).empty());
  EXPECT_TRUE(atoms.known(kAtomNone));
  EXPECT_EQ(atoms.intern(""), kAtomNone);
}

TEST(Wire, EventRoundTrip) {
  AtomRegistry atoms;
  XEvent ev;
  ev.type = EventType::kSelectionRequest;
  ev.provenance = Provenance::kSendEvent;
  ev.synthetic_flag = true;
  ev.window = 0xABCD1234;
  ev.requestor = 42;
  ev.selection = AtomRegistry::kClipboard;
  ev.property = atoms.intern("XSEL_DATA");
  ev.target = atoms.intern("UTF8_STRING");
  ev.keycode = -7;
  ev.button = 3;
  ev.x = 1023;
  ev.y = -5;

  auto back = wire::decode_event(wire::encode_event(ev), atoms);
  ASSERT_TRUE(back.is_ok());
  const XEvent& d = back.value();
  EXPECT_EQ(d.type, ev.type);
  EXPECT_EQ(d.provenance, ev.provenance);
  EXPECT_EQ(d.synthetic_flag, ev.synthetic_flag);
  EXPECT_EQ(d.window, ev.window);
  EXPECT_EQ(d.requestor, ev.requestor);
  EXPECT_EQ(d.selection, ev.selection);
  EXPECT_EQ(d.property, ev.property);
  EXPECT_EQ(d.target, ev.target);
  EXPECT_EQ(atoms.view(d.property), "XSEL_DATA");
  EXPECT_EQ(atoms.view(d.target), "UTF8_STRING");
  EXPECT_EQ(d.keycode, ev.keycode);
  EXPECT_EQ(d.button, ev.button);
  EXPECT_EQ(d.x, ev.x);
  EXPECT_EQ(d.y, ev.y);
}

TEST(Wire, SyntheticFlagIsTopBitOfCodeByte) {
  AtomRegistry atoms;
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.synthetic_flag = false;
  auto rec = wire::encode_event(ev);
  EXPECT_EQ(rec[0] & wire::kSyntheticBit, 0);

  ev.synthetic_flag = true;
  rec = wire::encode_event(ev);
  EXPECT_EQ(rec[0] & wire::kSyntheticBit, wire::kSyntheticBit);
  // The flag survives decoding even if the struct field were cleared: it
  // lives in the wire format.
  auto back = wire::decode_event(rec, atoms);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().synthetic_flag);
}

TEST(Wire, FlagCannotBeMaskedWithoutChangingTheCode) {
  // An attacker stripping the synthetic bit changes byte 0 — the event
  // remains parseable only as a *different* (non-forged) record, there is
  // no side channel to carry "synthetic but unflagged".
  AtomRegistry atoms;
  XEvent ev;
  ev.type = EventType::kButtonPress;
  ev.provenance = Provenance::kSendEvent;
  ev.synthetic_flag = true;
  auto rec = wire::encode_event(ev);
  rec[0] &= ~wire::kSyntheticBit;  // stripped on the wire
  auto back = wire::decode_event(rec, atoms);
  ASSERT_TRUE(back.is_ok());
  EXPECT_FALSE(back.value().synthetic_flag);
  // ...but the server-side provenance tag (§IV-A's generalization) still
  // says kSendEvent — defense in depth against flag stripping.
  EXPECT_EQ(back.value().provenance, Provenance::kSendEvent);
}

TEST(Wire, UnknownEventCodeRejected) {
  AtomRegistry atoms;
  wire::EventRecord rec{};
  rec[0] = 0x55;  // nonsense code
  EXPECT_EQ(wire::decode_event(rec, atoms).code(), Code::kBadRequest);
}

TEST(Wire, UnknownProvenanceRejected) {
  AtomRegistry atoms;
  wire::EventRecord rec{};
  rec[0] = static_cast<std::uint8_t>(EventType::kKeyPress);
  rec[1] = 0x7F;
  EXPECT_EQ(wire::decode_event(rec, atoms).code(), Code::kBadRequest);
}

TEST(Wire, UnknownAtomRejected) {
  AtomRegistry atoms;
  XEvent ev;
  ev.type = EventType::kSelectionNotify;
  ev.selection = AtomRegistry::kClipboard;
  ev.property = atoms.intern("P");
  ev.target = AtomRegistry::kString;
  // Each atom slot is checked against the registry.
  for (const std::size_t offset : {12u, 16u, 26u}) {
    auto rec = wire::encode_event(ev);
    rec[offset] = 0xFF;  // corrupt one atom
    rec[offset + 1] = 0xFF;
    EXPECT_EQ(wire::decode_event(rec, atoms).code(), Code::kBadAtom)
        << "atom at byte " << offset;
  }
}

TEST(Wire, EmptyStringsTravelAsNoneAtom) {
  AtomRegistry atoms;
  const std::size_t before = atoms.size();
  XEvent ev;
  ev.type = EventType::kKeyPress;
  ev.property = atoms.intern("");  // the empty name is None
  const auto rec = wire::encode_event(ev);
  EXPECT_EQ(atoms.size(), before);  // nothing interned, by either side
  auto back = wire::decode_event(rec, atoms);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().selection, kAtomNone);
  EXPECT_EQ(back.value().property, kAtomNone);
  EXPECT_EQ(back.value().target, kAtomNone);
}

}  // namespace
}  // namespace overhaul::x11

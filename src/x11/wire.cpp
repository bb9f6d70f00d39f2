#include "x11/wire.h"

#include <iterator>

namespace overhaul::x11 {

using util::Code;
using util::Result;

namespace {

struct Predefined {
  Atom atom;
  std::string_view name;
};
constexpr Predefined kPredefined[] = {
    {AtomRegistry::kPrimary, "PRIMARY"},
    {AtomRegistry::kSecondary, "SECONDARY"},
    {AtomRegistry::kClipboard, "CLIPBOARD"},
    {AtomRegistry::kString, "STRING"},
    {AtomRegistry::kIncr, "INCR"},
    {AtomRegistry::kTargets, "TARGETS"},
};

}  // namespace

Atom AtomRegistry::intern(std::string_view name) {
  if (name.empty()) return kAtomNone;
  for (const auto& p : kPredefined)
    if (p.name == name) return p.atom;
  if (const auto it = by_name_.find(name); it != by_name_.end())
    return it->second;
  const Atom atom = kFirstDynamic + static_cast<Atom>(names_.size());
  names_.push_back(std::make_unique<const std::string>(name));
  by_name_.emplace(*names_.back(), atom);
  return atom;
}

std::string_view AtomRegistry::view(Atom atom) const noexcept {
  if (atom >= kFirstDynamic) {
    const std::size_t idx = atom - kFirstDynamic;
    return idx < names_.size() ? *names_[idx] : std::string_view();
  }
  for (const auto& p : kPredefined)
    if (p.atom == atom) return p.name;
  return {};
}

Result<std::string> AtomRegistry::name(Atom atom) const {
  if (!known(atom)) return util::Status(Code::kBadAtom, "unknown atom");
  return std::string(view(atom));
}

std::size_t AtomRegistry::size() const noexcept {
  return std::size(kPredefined) + names_.size();
}

namespace wire {
namespace {

void put_u32(EventRecord& rec, std::size_t off, std::uint32_t v) {
  rec[off] = static_cast<std::uint8_t>(v);
  rec[off + 1] = static_cast<std::uint8_t>(v >> 8);
  rec[off + 2] = static_cast<std::uint8_t>(v >> 16);
  rec[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const EventRecord& rec, std::size_t off) {
  return static_cast<std::uint32_t>(rec[off]) |
         static_cast<std::uint32_t>(rec[off + 1]) << 8 |
         static_cast<std::uint32_t>(rec[off + 2]) << 16 |
         static_cast<std::uint32_t>(rec[off + 3]) << 24;
}

void put_i16(EventRecord& rec, std::size_t off, int v) {
  const auto u = static_cast<std::uint16_t>(static_cast<std::int16_t>(v));
  rec[off] = static_cast<std::uint8_t>(u);
  rec[off + 1] = static_cast<std::uint8_t>(u >> 8);
}

int get_i16(const EventRecord& rec, std::size_t off) {
  const auto u = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(rec[off]) |
      static_cast<std::uint16_t>(rec[off + 1]) << 8);
  return static_cast<std::int16_t>(u);
}

constexpr std::uint8_t kMaxEventCode =
    static_cast<std::uint8_t>(EventType::kConfigureNotify);

}  // namespace

// Layout (little-endian):
//   0     event code | kSyntheticBit
//   1     provenance
//   2-3   keycode (i16)
//   4-7   window (u32)
//   8-11  requestor window (u32)
//   12-15 selection atom (u32)
//   16-19 property atom (u32)
//   20-21 button (i16)
//   22-23 x (i16)
//   24-25 y (i16)
//   26-29 target atom (u32)
//   30-31 reserved (zero)
EventRecord encode_event(const XEvent& event) {
  EventRecord rec{};
  rec[0] = static_cast<std::uint8_t>(event.type);
  if (event.synthetic_flag) rec[0] |= kSyntheticBit;
  rec[1] = static_cast<std::uint8_t>(event.provenance);
  put_i16(rec, 2, event.keycode);
  put_u32(rec, 4, event.window);
  put_u32(rec, 8, event.requestor);
  put_u32(rec, 12, event.selection);
  put_u32(rec, 16, event.property);
  put_i16(rec, 20, event.button);
  put_i16(rec, 22, event.x);
  put_i16(rec, 24, event.y);
  put_u32(rec, 26, event.target);
  return rec;
}

Result<XEvent> decode_event(const EventRecord& record,
                            const AtomRegistry& atoms) {
  XEvent ev;
  const std::uint8_t code = record[0] & ~kSyntheticBit;
  if (code > kMaxEventCode)
    return util::Status(Code::kBadRequest, "unknown event code");
  ev.type = static_cast<EventType>(code);
  ev.synthetic_flag = (record[0] & kSyntheticBit) != 0;
  if (record[1] > static_cast<std::uint8_t>(Provenance::kXTest))
    return util::Status(Code::kBadRequest, "unknown provenance tag");
  ev.provenance = static_cast<Provenance>(record[1]);
  ev.keycode = get_i16(record, 2);
  ev.window = get_u32(record, 4);
  ev.requestor = get_u32(record, 8);
  ev.selection = get_u32(record, 12);
  ev.property = get_u32(record, 16);
  ev.button = get_i16(record, 20);
  ev.x = get_i16(record, 22);
  ev.y = get_i16(record, 24);
  ev.target = get_u32(record, 26);
  if (!atoms.known(ev.selection) || !atoms.known(ev.property) ||
      !atoms.known(ev.target))
    return util::Status(Code::kBadAtom, "unknown atom");
  return ev;
}

}  // namespace wire
}  // namespace overhaul::x11

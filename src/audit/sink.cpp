#include "audit/sink.h"

#include <string>

namespace overhaul::audit {

std::size_t Sink::count(util::Decision decision) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i)
    if (ring_.at(i).decision == static_cast<std::uint8_t>(decision)) ++n;
  return n;
}

std::size_t Sink::count(util::Op op,
                        util::Decision decision) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BinRecord& r = ring_.at(i);
    if (r.op == static_cast<std::uint8_t>(op) &&
        r.decision == static_cast<std::uint8_t>(decision))
      ++n;
  }
  return n;
}

util::AuditRecord Sink::decode(std::size_t i) const {
  const BinRecord& r = ring_.at(i);
  return audit::decode(r, ring_.string_at(r.comm_id),
                       ring_.string_at(r.detail_id));
}

std::vector<util::AuditRecord> Sink::records() const {
  std::vector<util::AuditRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(decode(i));
  return out;
}

std::size_t Sink::text_equiv_bytes() const noexcept {
  // What the same live records would occupy decoded: the record struct
  // itself plus its two heap strings' payloads.
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const BinRecord& r = ring_.at(i);
    bytes += sizeof(util::AuditRecord) + ring_.string_at(r.comm_id).size() +
             ring_.string_at(r.detail_id).size();
  }
  return bytes;
}

}  // namespace overhaul::audit

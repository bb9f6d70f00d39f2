// Fixed-size binary audit record — the on-ring / on-disk unit of the binary
// audit pipeline (DESIGN.md §16).
//
// The text `util::AuditRecord` carries two heap `std::string`s per decision,
// which makes every mediated decision on the otherwise zero-allocation check
// path (PR 3) allocate just to log itself — at fleet scale (1024+ shards,
// PR 7/8) the log is the next allocator. `BinRecord` is the LTTng-style
// answer: a 64-byte POD with string *ids* into a per-ring append-only intern
// table, so steady-state append is a struct copy. 64 bytes is one cache line
// and keeps the snapshot format mmap-friendly: a reader can overlay the
// record section in place without any per-record decode step.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/audit_log.h"

namespace overhaul::audit {

// Wire layout (host-endian; see EXPERIMENTS.md for the version policy):
//   offset  size  field
//        0     8  time_ns
//        8     8  interaction_age_ns
//       16     4  pid
//       20     4  comm_id    (intern-table index; 0 = "")
//       24     4  detail_id  (intern-table index; 0 = "")
//       28     1  op         (util::Op)
//       29     1  decision   (util::Decision)
//       30    34  reserved   (zero; future flags/origin tags)
struct BinRecord {
  std::int64_t time_ns = 0;
  std::int64_t interaction_age_ns = -1;  // -1 = never interacted
  std::int32_t pid = -1;
  std::uint32_t comm_id = 0;
  std::uint32_t detail_id = 0;
  std::uint8_t op = 0;
  std::uint8_t decision = 0;
  std::uint8_t reserved[34] = {};
};

inline constexpr std::size_t kBinRecordSize = 64;

static_assert(sizeof(BinRecord) == kBinRecordSize,
              "BinRecord must stay exactly one cache line; bump the snapshot "
              "format version before changing the layout");
static_assert(std::is_trivially_copyable_v<BinRecord>,
              "BinRecord is memcpy'd into snapshots");
static_assert(std::is_standard_layout_v<BinRecord>,
              "BinRecord layout is part of the snapshot wire format");

// The decoded record, given the two strings its ids resolve to in the intern
// table that issued them. Sink::decode and Reader::decode both build it here.
inline util::AuditRecord decode(const BinRecord& rec, std::string_view comm,
                                std::string_view detail) {
  util::AuditRecord out;
  out.time_ns = rec.time_ns;
  out.pid = rec.pid;
  out.comm = std::string(comm);
  out.op = static_cast<util::Op>(rec.op);
  out.decision = static_cast<util::Decision>(rec.decision);
  out.interaction_age_ns = rec.interaction_age_ns;
  out.detail = std::string(detail);
  return out;
}

}  // namespace overhaul::audit

// The decision log (DESIGN.md §16): every mediated decision lands here, as
// one 64-byte BinRecord in a per-shard binary ring.
//
// Producers (PermissionMonitor on behalf of every mediation layer: VFS
// device opens, X11/Wayland selection + capture, fleet shards) append
// through `append_decision`, which interns the two strings and stores one
// record — zero allocations steady-state, the property the
// counting-allocator test asserts with auditing enabled. Consumers
// (audit_report, timeline, tests, examples) count over the binary records
// directly, or decode them into `util::AuditRecord` and render each with
// `util::format_record`.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "audit/ring.h"
#include "util/audit_log.h"

namespace overhaul::audit {

class Sink {
 public:
  static constexpr std::size_t kDefaultCapacity = Ring::kDefaultCapacity;

  explicit Sink(std::size_t capacity = kDefaultCapacity) : ring_(capacity) {}

  // The hot-path append: R2 anchors this function's direct call into
  // Ring::append, so the binary ring cannot be silently bypassed.
  void append_decision(std::int64_t time_ns, int pid, std::string_view comm,
                       util::Op op, util::Decision decision,
                       std::int64_t interaction_age_ns,
                       std::string_view detail) {
    BinRecord rec;
    rec.time_ns = time_ns;
    rec.interaction_age_ns = interaction_age_ns;
    rec.pid = pid;
    rec.comm_id = ring_.intern(comm);
    rec.detail_id = ring_.intern(detail);
    rec.op = static_cast<std::uint8_t>(op);
    rec.decision = static_cast<std::uint8_t>(decision);
    ring_.append(rec);
  }

  void clear() { ring_.clear(); }
  void set_capacity(std::size_t cap) { ring_.set_capacity(cap); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return ring_.total_appended();
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }

  // Queries over the binary records — no string decode needed.
  [[nodiscard]] std::size_t count(util::Decision decision) const noexcept;
  [[nodiscard]] std::size_t count(util::Op op,
                                  util::Decision decision) const noexcept;

  // Decoded records, oldest first, with their strings resolved.
  [[nodiscard]] util::AuditRecord decode(std::size_t i) const;
  [[nodiscard]] std::vector<util::AuditRecord> records() const;

  [[nodiscard]] const Ring& ring() const noexcept { return ring_; }
  Ring& ring() noexcept { return ring_; }

  // Bytes the binary pipeline holds (records + intern payload), and what the
  // same live records would cost as decoded AuditRecords — the bench_fleet
  // RSS-proxy delta reports both.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return ring_.memory_bytes();
  }
  [[nodiscard]] std::size_t text_equiv_bytes() const noexcept;

 private:
  Ring ring_;
};

}  // namespace overhaul::audit

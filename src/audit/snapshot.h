// Versioned, CRC-checked snapshot format for binary audit rings
// (DESIGN.md §16; version policy in EXPERIMENTS.md).
//
// Layout (host-endian, packed by construction — every field naturally
// aligned):
//
//   SnapshotHeader              48 bytes, magic "UAVO"/version/CRC
//   string section              string_count × (u32 length + raw bytes),
//                               in intern-id order (id 0 = "")
//   record section              record_count × 64-byte BinRecord, oldest
//                               first (the ring is linearized on write)
//
// The CRC32 (IEEE) covers the string + record sections, so a truncated or
// bit-flipped snapshot is rejected before any record is trusted. The record
// section is raw `BinRecord[]`: a same-version reader may overlay it in
// place (mmap-friendly), which is how `tools/obs/audit_dump` decodes
// million-record streams without a parse step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/record.h"
#include "audit/ring.h"
#include "util/audit_log.h"

namespace overhaul::audit {

inline constexpr std::uint32_t kSnapshotMagic = 0x4F564155;  // "UAVO" on disk
inline constexpr std::uint16_t kSnapshotVersion = 1;

struct SnapshotHeader {
  std::uint32_t magic = kSnapshotMagic;
  std::uint16_t version = kSnapshotVersion;
  std::uint16_t record_size = kBinRecordSize;
  std::uint64_t record_count = 0;
  std::uint32_t string_count = 0;
  std::uint32_t payload_crc = 0;   // CRC32 over string + record sections
  std::uint64_t string_bytes = 0;  // byte length of the string section
  std::uint64_t total_appended = 0;
  std::uint64_t dropped = 0;
};

static_assert(sizeof(SnapshotHeader) == 48,
              "snapshot header layout is wire format; bump kSnapshotVersion");
static_assert(std::is_trivially_copyable_v<SnapshotHeader>,
              "snapshot header is memcpy'd to/from the byte stream");

// CRC-32 (IEEE 802.3, reflected), the checksum the snapshot header carries.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

// Serializes the ring (records oldest-first + its intern table) into the
// snapshot byte format.
[[nodiscard]] std::vector<std::uint8_t> snapshot(const Ring& ring);

// Writes snapshot(ring) to `path`. Returns false and fills *error on I/O
// failure.
bool write_snapshot_file(const Ring& ring, const std::string& path,
                         std::string* error);

// Validating decoder over a snapshot byte stream. load() rejects (returns
// false, fills *error) short headers, bad magic/version/record size,
// truncated payloads, CRC mismatches, string counts the string section
// cannot hold, and records whose string ids fall outside the decoded table
// — after a successful load every query is safe.
class Reader {
 public:
  bool load(const std::uint8_t* data, std::size_t size, std::string* error);
  bool load(const std::vector<std::uint8_t>& bytes, std::string* error) {
    return load(bytes.data(), bytes.size(), error);
  }
  bool load_file(const std::string& path, std::string* error);

  [[nodiscard]] const std::vector<BinRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::string_view string_at(std::uint32_t id) const noexcept {
    return id < strings_.size() ? std::string_view(strings_[id])
                                : std::string_view{};
  }
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return total_appended_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // The same counts audit::Sink answers, over the loaded records.
  [[nodiscard]] std::size_t count(util::Decision decision) const noexcept;
  [[nodiscard]] std::size_t count(util::Op op,
                                  util::Decision decision) const noexcept;

  // Decodes a record, its strings resolved from the snapshot's intern table;
  // util::format_record renders it exactly as it rendered live.
  [[nodiscard]] util::AuditRecord decode(const BinRecord& rec) const;

 private:
  std::vector<BinRecord> records_;
  std::vector<std::string> strings_;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace overhaul::audit

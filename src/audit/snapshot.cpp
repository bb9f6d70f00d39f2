#include "audit/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace overhaul::audit {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_bytes(std::vector<std::uint8_t>* out, const void* src,
               std::size_t n) {
  const std::size_t at = out->size();
  out->resize(at + n);
  if (n != 0) std::memcpy(out->data() + at, src, n);
}

bool take_bytes(const std::uint8_t*& cur, const std::uint8_t* end, void* dst,
                std::size_t n) {
  if (static_cast<std::size_t>(end - cur) < n) return false;
  std::memcpy(dst, cur, n);
  cur += n;
  return true;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> snapshot(const Ring& ring) {
  // String section first, in intern-id order so ids decode positionally.
  std::vector<std::uint8_t> payload;
  const StringTable& strings = ring.strings();
  for (std::uint32_t id = 0; id < strings.size(); ++id) {
    const std::string_view s = strings.get(id);
    const auto len = static_cast<std::uint32_t>(s.size());
    put_bytes(&payload, &len, sizeof(len));
    put_bytes(&payload, s.data(), s.size());
  }
  const std::uint64_t string_bytes = payload.size();

  // Record section: the ring linearized oldest-first.
  for (std::size_t i = 0; i < ring.size(); ++i)
    put_bytes(&payload, &ring.at(i), sizeof(BinRecord));

  SnapshotHeader header;
  header.record_count = ring.size();
  header.string_count = static_cast<std::uint32_t>(strings.size());
  header.string_bytes = string_bytes;
  header.total_appended = ring.total_appended();
  header.dropped = ring.dropped();
  header.payload_crc = crc32(payload.data(), payload.size());

  std::vector<std::uint8_t> out;
  out.reserve(sizeof(header) + payload.size());
  put_bytes(&out, &header, sizeof(header));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool write_snapshot_file(const Ring& ring, const std::string& path,
                         std::string* error) {
  const std::vector<std::uint8_t> bytes = snapshot(ring);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open '" + path + "' for write");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed)
    return fail(error, "short write to '" + path + "'");
  return true;
}

bool Reader::load(const std::uint8_t* data, std::size_t size,
                  std::string* error) {
  records_.clear();
  strings_.clear();
  total_appended_ = 0;
  dropped_ = 0;

  SnapshotHeader header;
  const std::uint8_t* cur = data;
  const std::uint8_t* end = data + size;
  if (!take_bytes(cur, end, &header, sizeof(header)))
    return fail(error, "short header: " + std::to_string(size) + " bytes");
  if (header.magic != kSnapshotMagic) return fail(error, "bad magic");
  if (header.version != kSnapshotVersion)
    return fail(error,
                "unsupported version " + std::to_string(header.version));
  if (header.record_size != kBinRecordSize)
    return fail(error,
                "record size " + std::to_string(header.record_size) +
                    " != " + std::to_string(kBinRecordSize));

  const auto avail = static_cast<std::uint64_t>(end - cur);
  // Bounds-check the counts individually before combining them, so a crafted
  // header cannot overflow the payload-size arithmetic into a small value.
  if (header.record_count > avail / kBinRecordSize ||
      header.string_bytes > avail)
    return fail(error, "header counts exceed payload size");
  // Every string costs at least its 4-byte length prefix, so the count is
  // bounded by the section's size before it sizes any allocation.
  if (header.string_count > header.string_bytes / sizeof(std::uint32_t))
    return fail(error, "string count " + std::to_string(header.string_count) +
                           " exceeds string section of " +
                           std::to_string(header.string_bytes) + " bytes");
  const std::uint64_t payload_size =
      header.string_bytes + header.record_count * kBinRecordSize;
  if (static_cast<std::uint64_t>(end - cur) != payload_size)
    return fail(error, "payload size mismatch: have " +
                           std::to_string(end - cur) + " bytes, header says " +
                           std::to_string(payload_size));
  const std::uint32_t crc = crc32(cur, static_cast<std::size_t>(payload_size));
  if (crc != header.payload_crc)
    return fail(error, "payload CRC mismatch (corrupt or truncated snapshot)");

  const std::uint8_t* strings_end = cur + header.string_bytes;
  strings_.reserve(header.string_count);
  for (std::uint32_t i = 0; i < header.string_count; ++i) {
    std::uint32_t len = 0;
    if (!take_bytes(cur, strings_end, &len, sizeof(len)) ||
        static_cast<std::size_t>(strings_end - cur) < len)
      return fail(error, "string table truncated at entry " +
                             std::to_string(i));
    strings_.emplace_back(reinterpret_cast<const char*>(cur), len);
    cur += len;
  }
  if (cur != strings_end)
    return fail(error, "string table has trailing bytes");

  records_.resize(static_cast<std::size_t>(header.record_count));
  if (header.record_count > 0)
    std::memcpy(records_.data(), cur,
                static_cast<std::size_t>(header.record_count) * kBinRecordSize);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const BinRecord& r = records_[i];
    if (r.comm_id >= strings_.size() || r.detail_id >= strings_.size())
      return fail(error, "record " + std::to_string(i) +
                             " has out-of-range string id");
  }

  total_appended_ = header.total_appended;
  dropped_ = header.dropped;
  return true;
}

bool Reader::load_file(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return fail(error, "read error on '" + path + "'");
  return load(bytes.data(), bytes.size(), error);
}

std::size_t Reader::count(util::Decision decision) const noexcept {
  return static_cast<std::size_t>(std::count_if(
      records_.begin(), records_.end(), [&](const BinRecord& r) {
        return r.decision == static_cast<std::uint8_t>(decision);
      }));
}

std::size_t Reader::count(util::Op op,
                          util::Decision decision) const noexcept {
  return static_cast<std::size_t>(std::count_if(
      records_.begin(), records_.end(), [&](const BinRecord& r) {
        return r.op == static_cast<std::uint8_t>(op) &&
               r.decision == static_cast<std::uint8_t>(decision);
      }));
}

util::AuditRecord Reader::decode(const BinRecord& rec) const {
  return audit::decode(rec, string_at(rec.comm_id), string_at(rec.detail_id));
}

}  // namespace overhaul::audit

// Snapshot round-trip property test + corrupt-stream rejection battery
// (DESIGN.md §16). The property: any decision stream, pushed through
// Ring → snapshot() → Reader, comes back bit-identical — same records in
// the same order, same string resolution, same lifetime totals.
#include "audit/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "audit/sink.h"
#include "util/rng.h"

namespace overhaul::audit {
namespace {

// A seeded random decision stream over a small vocabulary (the realistic
// shape: few distinct strings, many records).
void fill_random(Sink* sink, util::Rng* rng, int appends) {
  static const char* kComms[] = {"videoconf", "browser", "spyware", ""};
  static const char* kDetails[] = {"/dev/video0", "selection:CLIPBOARD",
                                   "screen:root", "", "/dev/snd/mic0"};
  for (int i = 0; i < appends; ++i) {
    sink->append_decision(
        static_cast<std::int64_t>(rng->next_below(1u << 30)),
        static_cast<int>(rng->next_below(30000)),
        kComms[rng->next_below(4)],
        static_cast<util::Op>(rng->next_below(
            static_cast<std::uint64_t>(util::kOpCount))),
        rng->next_below(2) == 0 ? util::Decision::kGrant
                                : util::Decision::kDeny,
        rng->next_below(2) == 0 ? -1
                                : static_cast<std::int64_t>(
                                      rng->next_below(1u << 20)),
        kDetails[rng->next_below(5)]);
  }
}

TEST(Snapshot, RoundTripPropertyRandomStreams) {
  // 20 seeded streams with varying lengths straddling the ring bound (some
  // never fill it, some wrap several times).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed * 977);
    Sink sink(64);
    const int appends = static_cast<int>(rng.next_below(300));
    fill_random(&sink, &rng, appends);

    const std::vector<std::uint8_t> bytes = snapshot(sink.ring());
    Reader reader;
    std::string error;
    ASSERT_TRUE(reader.load(bytes, &error)) << "seed " << seed << ": "
                                            << error;

    ASSERT_EQ(reader.size(), sink.size()) << "seed " << seed;
    EXPECT_EQ(reader.total_appended(), sink.total_appended());
    EXPECT_EQ(reader.dropped(), sink.dropped());
    for (std::size_t i = 0; i < reader.size(); ++i) {
      // Bit-identical record payloads...
      EXPECT_EQ(std::memcmp(&reader.records()[i], &sink.ring().at(i),
                            sizeof(BinRecord)),
                0)
          << "seed " << seed << " record " << i;
      // ...and identical string resolution + rendered line.
      EXPECT_EQ(util::format_record(reader.decode(reader.records()[i])),
                util::format_record(sink.decode(i)))
          << "seed " << seed << " record " << i;
    }
  }
}

TEST(Snapshot, RoundTripEmptyRing) {
  Ring ring(8);
  Reader reader;
  std::string error;
  ASSERT_TRUE(reader.load(snapshot(ring), &error)) << error;
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.total_appended(), 0u);
}

TEST(Snapshot, FileRoundTrip) {
  Sink sink(16);
  util::Rng rng(42);
  fill_random(&sink, &rng, 50);
  const std::string path = ::testing::TempDir() + "/audit_snapshot_test.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  Reader reader;
  ASSERT_TRUE(reader.load_file(path, &error)) << error;
  EXPECT_EQ(reader.size(), sink.size());
  EXPECT_EQ(reader.total_appended(), sink.total_appended());
  std::remove(path.c_str());
}

TEST(Snapshot, CountsMatchSink) {
  Sink sink(32);
  util::Rng rng(7);
  fill_random(&sink, &rng, 200);
  Reader reader;
  std::string error;
  ASSERT_TRUE(reader.load(snapshot(sink.ring()), &error)) << error;
  EXPECT_EQ(reader.count(util::Decision::kGrant),
            sink.count(util::Decision::kGrant));
  EXPECT_EQ(reader.count(util::Decision::kDeny),
            sink.count(util::Decision::kDeny));
  EXPECT_EQ(reader.count(util::Op::kMicrophone, util::Decision::kDeny),
            sink.count(util::Op::kMicrophone, util::Decision::kDeny));
  const auto denials = std::count_if(
      reader.records().begin(), reader.records().end(),
      [](const BinRecord& r) {
        return r.decision == static_cast<std::uint8_t>(util::Decision::kDeny);
      });
  EXPECT_EQ(static_cast<std::size_t>(denials),
            reader.count(util::Decision::kDeny));
}

// --- corrupt-stream rejection ----------------------------------------------

std::vector<std::uint8_t> valid_snapshot() {
  Sink sink(8);
  sink.append_decision(1'000'000, 42, "browser", util::Op::kPaste,
                       util::Decision::kGrant, 500, "selection:CLIPBOARD");
  sink.append_decision(2'000'000, 43, "spyware", util::Op::kScreenCapture,
                       util::Decision::kDeny, -1, "screen:root");
  return snapshot(sink.ring());
}

TEST(SnapshotReject, ShortHeader) {
  const auto bytes = valid_snapshot();
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes.data(), sizeof(SnapshotHeader) - 1, &error));
  EXPECT_NE(error.find("short"), std::string::npos) << error;
}

TEST(SnapshotReject, EmptyBuffer) {
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(nullptr, 0, &error));
}

TEST(SnapshotReject, BadMagic) {
  auto bytes = valid_snapshot();
  bytes[0] ^= 0xFF;
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SnapshotReject, UnknownVersion) {
  auto bytes = valid_snapshot();
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = 99;
  std::memcpy(bytes.data(), &header, sizeof(header));
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotReject, FlippedPayloadBit) {
  auto bytes = valid_snapshot();
  bytes.back() ^= 0x01;  // last record byte: caught by CRC, not bounds
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(SnapshotReject, TruncatedPayload) {
  auto bytes = valid_snapshot();
  bytes.resize(bytes.size() - 10);
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
}

TEST(SnapshotReject, TrailingGarbage) {
  auto bytes = valid_snapshot();
  bytes.push_back(0xAB);
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
}

TEST(SnapshotReject, HugeRecordCountDoesNotOverflow) {
  // A crafted count whose byte size would wrap 64-bit arithmetic must be
  // rejected by the bounds check, not silently accepted.
  auto bytes = valid_snapshot();
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.record_count = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data(), &header, sizeof(header));
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
}

TEST(SnapshotReject, StringCountExceedsStringBytes) {
  // A bare header claiming 2^32-1 strings in an empty string section. The
  // empty payload's CRC is 0, so the header verifies; every string costs at
  // least its 4-byte length prefix, so the count must be refused before it
  // sizes the string table.
  SnapshotHeader header;
  header.string_count = 0xFFFFFFFFu;
  std::uint8_t bytes[sizeof(header)];
  std::memcpy(bytes, &header, sizeof(header));
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, sizeof(bytes), &error));
  EXPECT_NE(error.find("string count"), std::string::npos) << error;
}

TEST(SnapshotReject, OutOfRangeStringId) {
  // Point a record's comm_id past the string table, then re-seal the CRC so
  // only the semantic check can catch it.
  Sink sink(8);
  sink.append_decision(1, 1, "comm", util::Op::kCamera,
                       util::Decision::kGrant, -1, "detail");
  auto bytes = snapshot(sink.ring());
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const std::size_t rec_off =
      sizeof(header) + static_cast<std::size_t>(header.string_bytes);
  BinRecord rec;  // memcpy in/out: the record section is not 8-aligned here
  std::memcpy(&rec, bytes.data() + rec_off, sizeof(rec));
  rec.comm_id = 1'000'000;
  std::memcpy(bytes.data() + rec_off, &rec, sizeof(rec));
  header.payload_crc = crc32(bytes.data() + sizeof(header),
                             bytes.size() - sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
  EXPECT_NE(error.find("string id"), std::string::npos) << error;
}

TEST(SnapshotReject, WrongRecordSize) {
  auto bytes = valid_snapshot();
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.record_size = 32;
  std::memcpy(bytes.data(), &header, sizeof(header));
  Reader reader;
  std::string error;
  EXPECT_FALSE(reader.load(bytes, &error));
}

TEST(Crc32, KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

}  // namespace
}  // namespace overhaul::audit

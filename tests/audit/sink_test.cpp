// audit::Sink, the decision log: ring accounting, the decode round trip and
// the rendered lines. decisions.golden pins the rendering: it holds the 64
// lines the text log printed for the seeded stream below (seed 99, 200
// decisions, a 64-record ring), and both the decoded Sink and the audit_dump
// CLI (run as a subprocess) must reproduce it byte for byte; the CLI's
// --deny and --stats views must match its DENY lines and its totals.
#include "audit/sink.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/snapshot.h"
#include "core/system.h"
#include "util/audit_log.h"
#include "util/rng.h"

namespace overhaul::audit {
namespace {

void append(Sink* sink, util::Op op, util::Decision d) {
  sink->append_decision(1'500'000'000, 100, "testapp", op, d, 250'000'000,
                        "/dev/snd/mic0");
}

// The seeded stream decisions.golden was rendered from.
void fill(Sink* sink, std::uint64_t seed, int n) {
  static const char* kComms[] = {"videoconf", "browser", "spyware"};
  static const char* kDetails[] = {"/dev/video0", "selection:CLIPBOARD", ""};
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    // One draw per statement: the stream depends on the draw order, and the
    // order in which arguments are evaluated is unspecified.
    const auto time_ns = static_cast<std::int64_t>(rng.next_below(1u << 30));
    const auto pid = static_cast<int>(rng.next_below(30000));
    const char* comm = kComms[rng.next_below(3)];
    const auto op = static_cast<util::Op>(
        rng.next_below(static_cast<std::uint64_t>(util::kOpCount)));
    const auto decision = rng.next_below(2) == 0 ? util::Decision::kGrant
                                                 : util::Decision::kDeny;
    const std::int64_t age =
        rng.next_below(2) == 0
            ? -1
            : static_cast<std::int64_t>(rng.next_below(1u << 20));
    const char* detail = kDetails[rng.next_below(3)];
    sink->append_decision(time_ns, pid, comm, op, decision, age, detail);
  }
}

std::string golden() {
  std::ifstream in(AUDIT_GOLDEN, std::ios::binary);
  EXPECT_TRUE(in.good()) << AUDIT_GOLDEN;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(SinkCompat, MirrorsTextLogUnderSharedStream) {
  Sink sink(64);
  fill(&sink, 99, 200);
  ASSERT_EQ(sink.size(), 64u);
  EXPECT_EQ(sink.total_appended(), 200u);
  EXPECT_EQ(sink.dropped(), 136u);

  // The binary-side counts agree with the decoded records...
  const std::vector<util::AuditRecord> decoded = sink.records();
  std::size_t grants = 0;
  std::size_t op_denials[util::kOpCount] = {};
  for (const util::AuditRecord& rec : decoded) {
    if (rec.decision == util::Decision::kGrant)
      ++grants;
    else
      ++op_denials[static_cast<std::size_t>(rec.op)];
  }
  EXPECT_EQ(sink.count(util::Decision::kGrant), grants);
  EXPECT_EQ(sink.count(util::Decision::kDeny), decoded.size() - grants);
  for (std::size_t op = 0; op < util::kOpCount; ++op)
    EXPECT_EQ(sink.count(static_cast<util::Op>(op), util::Decision::kDeny),
              op_denials[op]);

  // ...and render to the text log's lines, byte for byte.
  std::istringstream expected(golden());
  std::string line;
  std::size_t i = 0;
  while (std::getline(expected, line)) {
    ASSERT_LT(i, decoded.size());
    EXPECT_EQ(util::format_record(decoded[i]), line) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, decoded.size());
}

TEST(SinkCompat, DecodeRoundTripsEveryField) {
  Sink sink(8);
  sink.append_decision(1'500'000'000, 100, "testapp", util::Op::kCamera,
                       util::Decision::kDeny, 250'000'000, "/dev/video0");
  const util::AuditRecord out = sink.decode(0);
  EXPECT_EQ(out.time_ns, 1'500'000'000);
  EXPECT_EQ(out.pid, 100);
  EXPECT_EQ(out.comm, "testapp");
  EXPECT_EQ(out.op, util::Op::kCamera);
  EXPECT_EQ(out.decision, util::Decision::kDeny);
  EXPECT_EQ(out.interaction_age_ns, 250'000'000);
  EXPECT_EQ(out.detail, "/dev/video0");
}

TEST(SinkCompat, ZeroCapacityCountsDrops) {
  Sink sink(0);
  append(&sink, util::Op::kPaste, util::Decision::kGrant);
  append(&sink, util::Op::kPaste, util::Decision::kDeny);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_appended(), 2u);
  EXPECT_EQ(sink.dropped(), 2u);
}

TEST(SinkCompat, TextEquivBytesExceedsBinaryForStringHeavyStreams) {
  // A full ring of repeated comm/detail strings: the binary side holds one
  // interned copy plus fixed records, the decoded side would hold an
  // AuditRecord with two heap strings per entry.
  Sink sink(1024);
  for (int i = 0; i < 2048; ++i)
    append(&sink, util::Op::kScreenCapture, util::Decision::kGrant);
  EXPECT_GT(sink.text_equiv_bytes(), sink.memory_bytes());
}

#ifdef AUDIT_DUMP_BIN
struct DumpRun {
  std::string out;
  int exit_code = -1;
};

// Runs the real decoder binary over a snapshot file, after `flags`.
DumpRun run_audit_dump(const std::string& path, const std::string& flags = "") {
  const std::string cmd =
      std::string(AUDIT_DUMP_BIN) + " " + flags + " " + path + " 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {};
  DumpRun run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) run.out.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// Writes the golden's stream (seed 99, 200 decisions, a 64-record ring) to
// a snapshot file and returns its path.
std::string golden_snapshot(const char* name) {
  Sink sink(64);
  fill(&sink, 99, 200);
  const std::string path = ::testing::TempDir() + "/" + name;
  std::string error;
  EXPECT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  return path;
}

TEST(AuditDump, OutputMatchesAuditLogFormatLineForLine) {
  const std::string path = golden_snapshot("audit_dump_test.bin");
  const DumpRun run = run_audit_dump(path);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out, golden());
  std::remove(path.c_str());
}

TEST(AuditDump, DenyPrintsTheGoldensDenyLinesInOrder) {
  std::istringstream lines(golden());
  std::string expected;
  int denials = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" DENY ") == std::string::npos) continue;
    expected += line + "\n";
    ++denials;
  }
  ASSERT_EQ(denials, 31);
  const std::string path = golden_snapshot("audit_dump_deny.bin");
  const DumpRun run = run_audit_dump(path, "--deny");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out, expected);
  std::remove(path.c_str());
}

TEST(AuditDump, StatsPrintsTheRingTotals) {
  const std::string path = golden_snapshot("audit_dump_stats.bin");
  const DumpRun run = run_audit_dump(path, "--stats");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out,
            "records   64\n"
            "grants    33\n"
            "denials   31\n"
            "appended  200\n"
            "dropped   136\n");
  std::remove(path.c_str());
}

TEST(AuditDump, UnknownFlagExitsTwo) {
  const std::string path = golden_snapshot("audit_dump_flag.bin");
  const DumpRun run = run_audit_dump(path, "--bogus");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_TRUE(run.out.empty());
  std::remove(path.c_str());
}

TEST(AuditDump, RejectsCorruptSnapshotNonzeroExit) {
  const std::string path = ::testing::TempDir() + "/audit_dump_corrupt.bin";
  Sink sink(8);
  append(&sink, util::Op::kCamera, util::Decision::kGrant);
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  // Flip one payload byte on disk.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 1, f);
    std::fclose(f);
  }
  EXPECT_EQ(run_audit_dump(path).exit_code, 1);
  std::remove(path.c_str());
}

TEST(AuditDump, RejectsStringCountPastStringBytesExitOne) {
  // A bare 48-byte header that claims 2^32-1 strings and no string bytes.
  // The empty payload's CRC is 0, so only the string-count bound stops the
  // decoder from sizing a table for 2^32-1 strings.
  SnapshotHeader header;
  header.string_count = 0xFFFFFFFFu;
  const std::string path = ::testing::TempDir() + "/audit_dump_strings.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
    std::fclose(f);
  }
  const DumpRun run = run_audit_dump(path);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_TRUE(run.out.empty());
  std::remove(path.c_str());
}

TEST(AuditDump, DeniedCopyWithLongSelectionNameRendersInFull) {
  // A copy's audit detail is the X11 selection name, which the client picks
  // at any length.
  core::OverhaulSystem sys;
  const auto app = sys.launch_gui_app("/usr/bin/longsel", "longsel").value();
  const std::string selection = "SELECTION_" + std::string(290, 'x');
  auto& x = sys.xserver();
  ASSERT_EQ(x.selections()
                .set_selection_owner(app.client, x.atoms().intern(selection),
                                     app.window)
                .code(),
            util::Code::kBadAccess);

  const std::vector<util::AuditRecord> records = sys.audit().records();
  ASSERT_FALSE(records.empty());
  const util::AuditRecord& copy = records.back();
  ASSERT_EQ(copy.op, util::Op::kCopy);
  ASSERT_EQ(copy.decision, util::Decision::kDeny);
  const std::string line = util::format_record(copy);
  EXPECT_TRUE(line.ends_with(" " + selection)) << line;

  const std::string path = ::testing::TempDir() + "/audit_dump_long.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sys.audit().ring(), path, &error)) << error;
  std::string expected;
  for (const util::AuditRecord& rec : records)
    expected += util::format_record(rec) + "\n";
  const DumpRun run = run_audit_dump(path);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out, expected);
  EXPECT_NE(run.out.find(" " + selection + "\n"), std::string::npos);
  std::remove(path.c_str());
}
#endif  // AUDIT_DUMP_BIN

}  // namespace
}  // namespace overhaul::audit

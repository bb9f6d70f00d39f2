// Binary-vs-text audit append microbenchmark (DESIGN.md §16).
//
// Replays the same decision stream into a text log (a deque of AuditRecords
// with two heap std::strings per append, the path every mediated decision
// paid before the binary ring) and into the binary `audit::Sink` (two warm
// intern lookups + one 64-byte ring store). Both rings run full — the
// fleet's steady state — so the text path pays its per-append
// allocate/free churn and the binary path its masked overwrite.
//
// The gate is the ratio: binary append must be >= 3x faster than the text
// path. Absolute ns/op are machine-dependent; the ratio is the reproduced
// quantity, taken as the median over interleaved text/binary pairs so that
// host drift cancels within a pair and no single host phase decides the
// verdict. An optimized, unsanitized build exits 1 below the floor; debug
// or sanitized builds report the ratio as advisory only. The memory side
// (ring bytes per record against the text rendering) is perfbench's
// audit.bytes_per_record probes.
//
// Usage: bench_audit   (writes BENCH_audit.json; exit 1 on gate fail)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "audit/sink.h"
#include "bench_report.h"
#include "util/audit_log.h"

using namespace overhaul;

namespace {

constexpr int kAppendIters = 4'000'000;
constexpr int kPairs = 5;
constexpr double kSpeedupFloor = 3.0;

// Ring capacity for both sides: small enough that the steady-state
// (ring-full) regime dominates, large enough to defeat trivial caching.
constexpr std::size_t kRingCapacity = 1u << 14;

// A realistic decision mix: a handful of distinct apps and resources, the
// shape §V-D reports (few comms, logged millions of times).
constexpr std::string_view kComms[] = {
    "videoconf", "browser", "screenshot", "recorder",
    "passwdmgr", "spyware", "terminal",   "launcher",
};
constexpr std::string_view kDetails[] = {
    "/dev/v4l/by-id/usb-integrated-cam-video-index0",
    "/dev/snd/by-id/usb-mic-array-00",
    "selection:CLIPBOARD:targets=UTF8_STRING",
    "screen:root-window:1920x1080+0+0",
};

// The text log's append: push the record, evict the oldest past capacity.
struct TextLog {
  std::deque<util::AuditRecord> records;
  std::size_t capacity = 0;
  std::uint64_t total_appended = 0;
  std::uint64_t dropped = 0;

  void append(util::AuditRecord record) {
    ++total_appended;
    records.push_back(std::move(record));
    while (records.size() > capacity) {
      records.pop_front();
      ++dropped;
    }
  }
};

double time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

double ns_per_op(int ops, const std::function<void()>& fn) {
  return time_seconds(fn) / ops * 1e9;
}

// One pass of the text path exactly as PermissionMonitor::check used to
// build it: a fresh AuditRecord whose comm/detail are copied into heap
// strings.
void text_pass(TextLog* log) {
  for (int i = 0; i < kAppendIters; ++i) {
    util::AuditRecord rec;
    rec.time_ns = static_cast<std::int64_t>(i) * 1'000;
    rec.pid = 100 + (i & 7);
    rec.comm = kComms[i & 7];
    rec.op = static_cast<util::Op>(i % static_cast<int>(util::kOpCount));
    rec.decision =
        (i & 1) != 0 ? util::Decision::kGrant : util::Decision::kDeny;
    rec.interaction_age_ns = (i & 1023) * 1'000;
    rec.detail = kDetails[i & 3];
    log->append(std::move(rec));
  }
}

void binary_pass(audit::Sink* sink) {
  for (int i = 0; i < kAppendIters; ++i) {
    sink->append_decision(
        static_cast<std::int64_t>(i) * 1'000, 100 + (i & 7), kComms[i & 7],
        static_cast<util::Op>(i % static_cast<int>(util::kOpCount)),
        (i & 1) != 0 ? util::Decision::kGrant : util::Decision::kDeny,
        (i & 1023) * 1'000, kDetails[i & 3]);
  }
}

struct Result {
  double text_ns = 1e99;       // best text pass
  double binary_ns = 1e99;     // best binary pass
  bench::RatioSpread speedup;  // over the per-pair text/binary ratios
};

// Each pair times one text pass, then one binary pass, back to back, after
// one warmup pass per side (fills both rings, interns every string).
Result run_pairs(TextLog* log, audit::Sink* sink) {
  text_pass(log);
  binary_pass(sink);
  Result r;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const double t = ns_per_op(kAppendIters, [&] { text_pass(log); });
    const double b = ns_per_op(kAppendIters, [&] { binary_pass(sink); });
    r.text_ns = std::min(r.text_ns, t);
    r.binary_ns = std::min(r.binary_ns, b);
    ratios.push_back(t / b);
  }
  r.speedup = bench::ratio_spread(std::move(ratios));
  return r;
}

}  // namespace

int main() {
  std::printf("Audit append: text log vs binary ring (%d interleaved pairs, "
              "ring capacity %zu)\n\n",
              kPairs, kRingCapacity);

  TextLog text_log;
  text_log.capacity = kRingCapacity;
  audit::Sink sink(kRingCapacity);
  const Result r = run_pairs(&text_log, &sink);

  std::printf("%-16s %10.1f ns/op   (AuditRecord + 2 heap strings, "
              "push/pop churn)\n",
              "text-append", r.text_ns);
  std::printf("%-16s %10.1f ns/op   (2 warm interns + 64-byte ring store)\n",
              "binary-append", r.binary_ns);
  std::printf("\nbinary append speedup: %.2fx, median of %d interleaved pairs "
              "(%.2f-%.2fx; gate: >= %.0fx)\n",
              r.speedup.median, kPairs, r.speedup.min, r.speedup.max,
              kSpeedupFloor);

  bench::JsonReport report("audit");
  report.add("pairs", kPairs);
  report.add("ring_capacity", kRingCapacity);
  report.add("append_iters", kAppendIters);
  report.add("text_append_ns_per_op", r.text_ns);
  report.add("binary_append_ns_per_op", r.binary_ns);
  report.add("binary_speedup", r.speedup.median);
  report.add("binary_speedup_min", r.speedup.min);
  report.add("binary_speedup_max", r.speedup.max);
  (void)report.write("BENCH_audit.json");

  // Sanity in every build: both sides saw the same stream and the ring
  // obeyed its bound.
  if (sink.size() != kRingCapacity ||
      sink.total_appended() != text_log.total_appended) {
    std::fprintf(stderr,
                 "bench_audit: GATE FAILED — stream mismatch (binary saw "
                 "%llu appends, text %llu)\n",
                 static_cast<unsigned long long>(sink.total_appended()),
                 static_cast<unsigned long long>(text_log.total_appended));
    return 1;
  }
  if (!bench::kOptimizedBuild) {
    std::printf("(debug or sanitized build: speedup gate advisory, not "
                "enforced)\n");
    return 0;
  }
  if (r.speedup.median < kSpeedupFloor) {
    std::fprintf(stderr,
                 "bench_audit: GATE FAILED — binary append only %.2fx faster "
                 "than the text path (median of %d pairs, want >= %.0fx)\n",
                 r.speedup.median, kPairs, kSpeedupFloor);
    return 1;
  }
  return 0;
}

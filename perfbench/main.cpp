// perfbench: the repository benchmark.
//
//   perfbench --workload desktop|cli|fleet --seed N --seconds S --trace 0|1
//             [--out DIR]
//   perfbench --selftest [--out DIR]
//
// --trace 0 measures the end-to-end metrics with every tracer off. --trace 1
// runs the same script three more ways (untraced, traced, and on the
// unmodified system) and prints the per-layer breakdown, the layer probes and
// the audit-memory figures instead. Either way the last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A failed op or a broken cross-check makes the exit code 1.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/json.h"
#include "probes.h"
#include "sim/parallel.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
using overhaul::core::OverhaulSystem;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int seats = 1024;  // the self-test runs a smaller fleet
  int lanes = std::min(overhaul::sim::ParallelExecutor::hardware_lanes(), 4);
  std::string out = ".";
};

// The share of --seconds given to the reference runs, which supply the
// metrics a workload does not exercise itself (see README.md): cli jobs for
// desktop and fleet, desktop episodes for cli and fleet.
constexpr double kReferenceShare = 0.3;
// Length of one time slice of a measured loop (see Sliced).
constexpr double kSliceSeconds = 0.4;
// Setups per run; setup_s is their median.
constexpr int kSetupsSmall = 15;
constexpr int kSetupsFleet = 3;
// The traced run's share of --seconds for its first (untraced) pass, the
// most episodes or jobs it replays (so the spans stay a few million), and
// the most fleet quanta it replays on one lane.
constexpr double kTracedShare = 0.3;
constexpr std::uint64_t kTracedUnitsMax = 100'000;
constexpr std::uint64_t kTracedQuantaMax = 100;
constexpr std::size_t kChromeSpansMax = 200'000;

using Count = std::function<double(const std::string&)>;

void add_oracle(Report& rep, const Oracle& o, const char* what) {
  rep.attempted += o.attempted();
  rep.failed += o.failed();
  for (const std::string& n : o.notes())
    std::fprintf(stderr, "perfbench: %s: failed op: %s\n", what, n.c_str());
}

// Counter cross-checks that hold for any run of a mediated system.
void cross_check(Report& rep, const Count& count, std::uint64_t appended,
                 std::uint64_t held_plus_dropped,
                 std::uint64_t alert_eligible) {
  const auto queries = static_cast<std::uint64_t>(count("monitor.queries"));
  const auto granted =
      static_cast<std::uint64_t>(count("monitor.decisions.granted"));
  const auto denied =
      static_cast<std::uint64_t>(count("monitor.decisions.denied"));
  rep.require(granted + denied == queries,
              "granted + denied == monitor.queries");
  rep.require(appended == queries, "audit appended == monitor.queries");
  rep.require(held_plus_dropped == appended,
              "audit held + dropped == audit appended");
  rep.require(static_cast<std::uint64_t>(count("netlink.msg.alerts")) ==
                  alert_eligible,
              "netlink.msg.alerts == alert-eligible decisions (" +
                  std::to_string(alert_eligible) + ")");
}

void cross_check_system(Report& rep, OverhaulSystem& sys,
                        std::uint64_t alert_eligible) {
  auto& audit = sys.audit();
  cross_check(
      rep, [&](const std::string& n) { return double(counter(sys, n)); },
      audit.total_appended(), audit.size() + audit.dropped(), alert_eligible);
}

void cross_check_fleet(Report& rep, FleetWorkload& w,
                       std::uint64_t alert_eligible) {
  auto& f = w.harness();
  std::uint64_t appended = 0;
  std::uint64_t held_plus_dropped = 0;
  for (int id = 0; id < f.shard_count(); ++id) {
    auto& audit = f.shard(id).kernel().audit();
    appended += audit.total_appended();
    held_plus_dropped += audit.size() + audit.dropped();
  }
  cross_check(
      rep, [&](const std::string& n) { return double(f.aggregate_counter(n)); },
      appended, held_plus_dropped, alert_eligible);
}

// --- end-to-end run (--trace 0) ------------------------------------------------

// Runs `setups` fresh setups, keeping the last; returns their median in s.
template <typename Make, typename Ptr>
double timed_setups(int setups, Ptr& keep, Make&& make) {
  std::vector<double> secs;
  for (int i = 0; i < setups; ++i) {
    // Never hold two setups at once, and hand the freed heap back so the
    // peak RSS is one setup's.
    keep.reset();
    malloc_trim(0);
    const std::int64_t t0 = wall_ns();
    keep = make();
    secs.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  return median(secs);
}

// The timed ops, in the order the log prints them.
enum Op : std::size_t {
  kInput, kOpen, kPaste, kCapture, kJob, kIpc, kSpawn, kCreate, kIteration,
  kOpCount
};
constexpr Samples OpStats::*kOpSamples[kOpCount] = {
    &OpStats::input, &OpStats::open,  &OpStats::paste,
    &OpStats::capture, &OpStats::job, &OpStats::ipc,
    &OpStats::spawn, &OpStats::create, &OpStats::iteration};
constexpr const char* kOpNames[kOpCount] = {
    "input", "open", "paste", "capture", "job", "ipc", "spawn", "create",
    "iteration"};

// Iterations per block for the loop's tail (see Sliced::iteration_p99).
constexpr std::size_t kIterationsPerBlock = 200;

int slice_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
}

// A measured loop split into time slices of about kSliceSeconds. Outside
// load on a shared machine comes and goes at sub-second scale and can slow
// every op by a third while it lasts, so each per-op p50 (and the mean shm
// step) is taken from its best slice, the lowest per-slice value. Every
// slice holds hundreds to thousands of ops, so the best one is the least
// disturbed, not a lucky draw. The loop-level figures exist to show stalls,
// so they are medians instead: of the slices' decision rates, and of the
// p99s of consecutive blocks of kIterationsPerBlock iterations (a stall
// every 50-100 fleet quanta shows in every block's p99; one that a
// neighbour causes now and then does not move the median). Each slice is
// reduced to a summary as it ends, so the harness's memory stays flat.
class Sliced {
 public:
  // One unmeasured slice: the first quanta or episodes of a fresh setup grow
  // per-seat logs and warm caches, which no later slice does.
  template <typename W>
  void warm_up(W& w) {
    OpStats s;
    w.run({kSliceSeconds}, s);
    alert_eligible_ += s.alert_eligible;
  }

  template <typename W>
  void slice(W& w, double seconds) {
    OpStats s;
    w.run({seconds}, s);
    Summary sum;
    for (std::size_t k = 0; k < kOpCount; ++k) {
      const Samples& x = s.*kOpSamples[k];
      sum.p50[k] = x.p50();
      sum.p99[k] = x.p99();
      n_[k] += x.n();
    }
    for (std::size_t c = 0; c < OpStats::kIpcCarriers; ++c)
      sum.ipc_p50[c] = s.ipc_by_carrier[c].p50();
    if (s.shm_steps > 0)
      sum.shm_step_ns = s.shm_ns / static_cast<double>(s.shm_steps);
    if (s.timed_s > 0)
      sum.decision_rate = static_cast<double>(s.decisions) / s.timed_s;
    slices_.push_back(sum);
    for (const double ns : s.iteration.values()) {
      block_.add(ns);
      if (block_.n() == kIterationsPerBlock) {
        block_p99_.push_back(block_.p99());
        block_.clear();
      }
    }
    units_ += s.units;
    alert_eligible_ += s.alert_eligible;
  }

  [[nodiscard]] double p50(Op op) const {
    if (op == kIpc) return ipc_p50();
    return settled([op](const Summary& s) { return s.p50[op]; });
  }
  // The carriers' costs differ: pipe and FIFO copy the message bytewise,
  // socketpair and mq move it. With the four equally likely, the p50 of
  // their mix sits in the gap between the two pairs and jumps across it
  // with each slice's mix. So the ipc p50 is the mean over the carriers of
  // each carrier's own best-slice p50.
  [[nodiscard]] double ipc_p50() const {
    double sum = 0;
    int carriers = 0;
    for (std::size_t c = 0; c < OpStats::kIpcCarriers; ++c) {
      const double x = carrier_p50(c);
      if (x > 0) {
        sum += x;
        ++carriers;
      }
    }
    return carriers > 0 ? sum / carriers : 0;
  }
  [[nodiscard]] double carrier_p50(std::size_t c) const {
    return settled([c](const Summary& s) { return s.ipc_p50[c]; });
  }
  [[nodiscard]] double p99(Op op) const {
    return settled([op](const Summary& s) { return s.p99[op]; });
  }
  [[nodiscard]] double shm_step_ns() const {
    return settled([](const Summary& s) { return s.shm_step_ns; });
  }
  [[nodiscard]] double decision_rate() const {
    std::vector<double> rates;
    for (const Summary& s : slices_) rates.push_back(s.decision_rate);
    return median(rates);
  }
  // Median block p99; a run too short for one full block uses what it has.
  [[nodiscard]] double iteration_p99() const {
    return block_p99_.empty() ? block_.p99() : median(block_p99_);
  }
  [[nodiscard]] std::uint64_t alert_eligible() const { return alert_eligible_; }

  void print(const std::string& title) const {
    std::printf("%s: %llu iterations in %zu slices, median %.0f decisions/s,"
                " median p99 of %zu blocks of %zu iterations %.1f ns\n",
                title.c_str(), static_cast<unsigned long long>(units_),
                slices_.size(), decision_rate(), block_p99_.size(),
                kIterationsPerBlock, iteration_p99());
    for (std::size_t k = 0; k < kOpCount; ++k) {
      if (n_[k] == 0) continue;
      std::printf("  %-10s p50 %12.1f ns  p99 %12.1f ns  n %llu\n", kOpNames[k],
                  p50(static_cast<Op>(k)), p99(static_cast<Op>(k)),
                  static_cast<unsigned long long>(n_[k]));
    }
    if (n_[kIpc] > 0)
      std::printf("  ipc p50 by carrier: pipe %.1f, socketpair %.1f, FIFO %.1f,"
                  " mq %.1f ns\n",
                  carrier_p50(0), carrier_p50(1), carrier_p50(2),
                  carrier_p50(3));
    if (shm_step_ns() > 0)
      std::printf("  %-10s mean %11.1f ns\n", "shm step", shm_step_ns());
  }

 private:
  struct Summary {
    double p50[kOpCount] = {};
    double p99[kOpCount] = {};
    double ipc_p50[OpStats::kIpcCarriers] = {};
    double shm_step_ns = 0;
    double decision_rate = 0;
  };

  // The lowest value of f over the slices that saw the op at all.
  template <typename F>
  double settled(F&& f) const {
    double best = 0;
    for (const Summary& s : slices_) {
      const double x = f(s);
      if (x > 0 && (best == 0 || x < best)) best = x;
    }
    return best;
  }

  std::vector<Summary> slices_;
  Samples block_;
  std::vector<double> block_p99_;
  std::uint64_t n_[kOpCount] = {};
  std::uint64_t units_ = 0;
  std::uint64_t alert_eligible_ = 0;
};

// What the reference runs hand back to the measured run.
struct ReferenceFigures {
  double p50[kOpCount] = {};
  double shm_step_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// The reference runs, which supply the metrics of ops a workload does not
// perform itself (see README.md): cli jobs for desktop and fleet, desktop
// episodes for cli and fleet, each on a fresh seat with a derived seed. They
// run in a child process forked before the workload's setup, in lockstep
// with the measured loop: after each of the loop's slices the parent waits
// while the child runs one slice of each reference. Only one of the two
// runs at a time; the references' slices are spread over the whole run like
// the workload's own, so their best slice is as good a pick; and their
// memory stays out of the parent's peak RSS.
class References {
 public:
  References(const Args& a, bool cli, bool desktop, double slice_s) {
    int down[2];
    int up[2];
    if (pipe(down) != 0) return;
    if (pipe(up) != 0) {
      close(down[0]);
      close(down[1]);
      return;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    child_ = fork();
    if (child_ == 0) {
      close(down[1]);
      close(up[0]);
      serve(a, cli, desktop, slice_s, down[0], up[1]);
    }
    close(down[0]);
    close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
  }
  References(const References&) = delete;
  References& operator=(const References&) = delete;
  ~References() { finish(); }

  // Lets the child run one slice of each reference; returns when it is done.
  void step() {
    char c = 'g';
    if (child_ <= 0 || write(to_child_, &c, 1) != 1 ||
        read(from_child_, &c, 1) != 1)
      ok_ = false;
  }

  // Ends the child, waits for it, and hands back its figures; false if it
  // did not deliver them.
  bool finish(ReferenceFigures* out = nullptr) {
    if (child_ > 0) {
      const char c = 'f';
      ok_ = ok_ && write(to_child_, &c, 1) == 1 &&
            read_all(from_child_, &figures_, sizeof figures_);
      close(to_child_);  // a child still waiting for a turn reads EOF
      int status = 0;
      waitpid(child_, &status, 0);
      ok_ = ok_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      close(from_child_);
      child_ = 0;
    } else if (child_ < 0) {
      ok_ = false;
    }
    if (out != nullptr) *out = figures_;
    return ok_;
  }

 private:
  // The child: set each reference up on its first turn, run one slice of
  // each per turn, and on 'f' print the references' report and send back
  // their figures.
  // It leaves with _exit, so it never flushes or destroys what it inherited.
  [[noreturn]] static void serve(const Args& a, bool cli, bool desktop,
                                 double slice_s, int in, int out) {
    std::unique_ptr<CliWorkload> c;
    std::unique_ptr<DesktopWorkload> d;
    Sliced cli_ops;
    Sliced desktop_ops;
    // With two references, each gets half of every turn: twice as many
    // slices to pick the best from helps more than longer ones.
    const double each = slice_s / (cli && desktop ? 2 : 1);
    char cmd = 0;
    while (read(in, &cmd, 1) == 1 && cmd == 'g') {
      if (cli) {
        if (c == nullptr) {
          c = std::make_unique<CliWorkload>(a.seed + 1, true);
          cli_ops.warm_up(*c);
        }
        cli_ops.slice(*c, each);
      }
      if (desktop) {
        if (d == nullptr) {
          d = std::make_unique<DesktopWorkload>(a.seed + 1, true);
          desktop_ops.warm_up(*d);
        }
        desktop_ops.slice(*d, each);
      }
      if (write(out, &cmd, 1) != 1) _exit(1);
    }
    if (cmd != 'f') _exit(1);
    ReferenceFigures f;
    for (std::size_t k = 0; k < kOpCount; ++k) {
      const bool display_op =
          k == kInput || k == kOpen || k == kPaste || k == kCapture;
      f.p50[k] = (display_op ? desktop_ops : cli_ops).p50(static_cast<Op>(k));
    }
    f.shm_step_ns = cli_ops.shm_step_ns();
    for (const Oracle* o :
         {c ? &c->oracle() : nullptr, d ? &d->oracle() : nullptr}) {
      if (o == nullptr) continue;
      f.attempted += o->attempted();
      f.failed += o->failed();
      for (const std::string& n : o->notes())
        std::fprintf(stderr, "perfbench: reference run: failed op: %s\n",
                     n.c_str());
    }
    if (c) cli_ops.print("cli reference run");
    if (d) desktop_ops.print("desktop reference run");
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(write_all(out, &f, sizeof f) ? 0 : 1);
  }

  pid_t child_ = -1;  // 0 once finished
  int to_child_ = -1;
  int from_child_ = -1;
  bool ok_ = true;
  ReferenceFigures figures_;
};

// Warms the workload up, then measures it for `seconds`, handing the
// references a turn after every slice.
template <typename W>
void measure(W& w, double seconds, Sliced& ops, References& refs) {
  ops.warm_up(w);
  const int n = slice_count(seconds);
  for (int i = 0; i < n; ++i) {
    ops.slice(w, seconds / n);
    refs.step();
  }
}

Report run_untraced(const Args& a) {
  Report rep;
  Sliced main_ops;  // the workload's own ops
  double setup_s = 0;
  double rss = 0;
  const double main_s = a.seconds * (1 - kReferenceShare);
  const bool is_cli = a.workload == "cli";
  const bool is_desktop = a.workload == "desktop";
  References refs(a, !is_cli, !is_desktop,
                  kSliceSeconds * kReferenceShare / (1 - kReferenceShare));

  if (is_desktop) {
    std::unique_ptr<DesktopWorkload> w;
    setup_s = timed_setups(kSetupsSmall, w, [&] {
      return std::make_unique<DesktopWorkload>(a.seed, true);
    });
    measure(*w, main_s, main_ops, refs);
    rss = peak_rss_mib();
    add_oracle(rep, w->oracle(), "desktop");
    cross_check_system(rep, w->system(), main_ops.alert_eligible());
  } else if (is_cli) {
    std::unique_ptr<CliWorkload> w;
    setup_s = timed_setups(kSetupsSmall, w, [&] {
      return std::make_unique<CliWorkload>(a.seed, true);
    });
    measure(*w, main_s, main_ops, refs);
    rss = peak_rss_mib();
    add_oracle(rep, w->oracle(), "cli");
    cross_check_system(rep, w->system(), main_ops.alert_eligible());
  } else {
    FleetOptions fo{a.seats, a.lanes, a.seed, false};
    std::unique_ptr<FleetWorkload> w;
    setup_s = timed_setups(kSetupsFleet, w, [&] {
      return std::make_unique<FleetWorkload>(fo);
    });
    measure(*w, main_s, main_ops, refs);
    FleetStats fs;
    w->tally(fs);
    rss = peak_rss_mib();
    rep.attempted += fs.attempted;
    rep.failed += fs.failed;
    cross_check_fleet(rep, *w, fs.alert_eligible);
    std::printf("fleet: %d seats, %d lanes\n", a.seats, w->harness().threads());
  }
  main_ops.print("workload " + a.workload);
  std::fflush(stdout);
  ReferenceFigures ref;
  rep.require(refs.finish(&ref), "the reference runs delivered their figures");
  rep.attempted += ref.attempted;
  rep.failed += ref.failed;

  // Input and open are desktop and cli metrics; on fleet they come from the
  // desktop reference, and the fleet's own (lane-contended) latencies are
  // only printed.
  const bool is_fleet = !is_cli && !is_desktop;
  auto own = [&](Op op) { return is_fleet ? ref.p50[op] : main_ops.p50(op); };
  auto cli_side = [&](Op op) { return is_cli ? main_ops.p50(op) : ref.p50[op]; };
  auto display_side = [&](Op op) {
    return is_desktop ? main_ops.p50(op) : ref.p50[op];
  };
  rep.set("input_p50_ns", own(kInput), "ns");
  rep.set("open_p50_ns", own(kOpen), "ns");
  rep.set("paste_p50_ns", display_side(kPaste), "ns");
  rep.set("capture_p50_ns", display_side(kCapture), "ns");
  rep.set("job_p50_ns", cli_side(kJob), "ns");
  rep.set("ipc_p50_ns", cli_side(kIpc), "ns");
  rep.set("spawn_p50_ns", cli_side(kSpawn), "ns");
  rep.set("create_p50_ns", cli_side(kCreate), "ns");
  rep.set("shm_access_ns",
          is_cli ? main_ops.shm_step_ns() : ref.shm_step_ns, "ns");
  rep.set("decisions_per_s", main_ops.decision_rate(), "1/s");
  rep.set("quantum_p99_ns", main_ops.iteration_p99(), "ns");
  rep.set("setup_s", setup_s, "s");
  rep.set("peak_rss_mib", rss, "MiB");
  for (const auto& m : rep.metrics)
    rep.require(m.value > 0, "metric " + m.name + " was measured");
  return rep;
}

// --- traced run (--trace 1) ----------------------------------------------------

const char* const kLayerMetrics[][2] = {
    {"x11.input.busy_ms", "ms"},
    {"x11.input.notifications", "count"},
    {"x11.selection.busy_ms", "ms"},
    {"x11.screen.busy_ms", "ms"},
    {"wl.input.busy_ms", "ms"},
    {"wl.input.notifications", "count"},
    {"wl.data_device.busy_ms", "ms"},
    {"wl.screencopy.busy_ms", "ms"},
    {"netlink.crossings", "count"},
    {"netlink.merged", "count"},
    {"netlink.flushes", "count"},
    {"netlink.merge_ratio", "ratio"},
    {"monitor.busy_ms", "ms"},
    {"monitor.queries", "count"},
    {"monitor.grants", "count"},
    {"monitor.denials", "count"},
    {"monitor.notifications", "count"},
    {"monitor.notify_per_query", "ratio"},
    {"audit.appended", "count"},
    {"audit.dropped", "count"},
    {"audit.ring_mib", "MiB"},
    {"audit.bytes_per_record.8", "B"},
    {"audit.bytes_per_record.64", "B"},
    {"audit.bytes_per_record.1024", "B"},
    {"audit.text_bytes_per_record.8", "B"},
    {"audit.text_bytes_per_record.64", "B"},
    {"audit.text_bytes_per_record.1024", "B"},
    {"vfs.open.busy_ms", "ms"},
    {"vfs.device.opens", "count"},
    {"vfs.device.denials", "count"},
    {"vfs.create.busy_ms", "ms"},
    {"process.busy_ms", "ms"},
    {"process.live_peak", "count"},
    {"pty.busy_ms", "ms"},
    {"ipc.pty.send_stamps", "count"},
    {"ipc.pty.recv_adoptions", "count"},
    {"ipc.busy_ms", "ms"},
    {"ipc.pipe.send_stamps", "count"},
    {"ipc.pipe.recv_adoptions", "count"},
    {"ipc.fifo.send_stamps", "count"},
    {"ipc.fifo.recv_adoptions", "count"},
    {"ipc.msgq.send_stamps", "count"},
    {"ipc.msgq.recv_adoptions", "count"},
    {"ipc.socket.send_stamps", "count"},
    {"ipc.socket.recv_adoptions", "count"},
    {"ipc.adoption_ratio", "ratio"},
    {"shm.busy_ms", "ms"},
    {"shm.faults", "count"},
    {"shm.rearms", "count"},
    {"shm.fault_ratio", "ratio"},
    {"sim.scheduler.busy_ms", "ms"},
    {"fleet.step.busy_ms", "ms"},
    {"fleet.beat.busy_ms", "ms"},
    {"fleet.lane.busy_ms", "ms"},
    {"fleet.lane_utilization", "ratio"},
    {"fleet.coordinator_ms", "ms"},
    {"fleet.xshard.busy_ms", "ms"},
    {"fleet.xshard.sends", "count"},
    {"fleet.xshard.adoptions", "count"},
    {"fleet.rollup_ms", "ms"},
    {"fleet.boot_ms", "ms"},
    {"harness.busy_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
    {"overhaul.added_ns.input", "ns"},
    {"overhaul.added_ns.open", "ns"},
    {"overhaul.added_ns.paste", "ns"},
    {"overhaul.added_ns.capture", "ns"},
    {"overhaul.added_ns.ipc", "ns"},
    {"overhaul.added_ns.spawn", "ns"},
    {"overhaul.added_ns.create", "ns"},
    {"overhaul.added_ns.shm", "ns"},
    {"probe.monitor_check_ns", "ns"},
    {"probe.audit_append_ns", "ns"},
    {"probe.netlink_send_coalesced_ns", "ns"},
    {"probe.netlink_send_uncoalesced_ns", "ns"},
    {"probe.lookup_live_ns", "ns"},
    {"probe.monitor_check_est_ms", "ms"},
    {"probe.audit_append_est_ms", "ms"},
    {"probe.netlink_send_est_ms", "ms"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void set_unit(Report& rep, const std::string& name, double v) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) {
      rep.set(name, v, unit);
      return;
    }
  }
  rep.require(false, "unknown per-layer metric " + name);
}

// Registry counts of one run, under the per-layer metric names.
void layer_counts(Report& rep, const Count& count) {
  const double crossings = count("netlink.msg.interactions");
  const double merged = count("netlink.coalesce.merged");
  set_unit(rep, "x11.input.notifications", count("x11.input.notifications"));
  set_unit(rep, "wl.input.notifications", count("wl.input.notifications"));
  set_unit(rep, "netlink.crossings", crossings);
  set_unit(rep, "netlink.merged", merged);
  set_unit(rep, "netlink.flushes", count("netlink.coalesce.flushed"));
  set_unit(rep, "netlink.merge_ratio", ratio(merged, merged + crossings));
  const double queries = count("monitor.queries");
  set_unit(rep, "monitor.queries", queries);
  set_unit(rep, "monitor.grants", count("monitor.decisions.granted"));
  set_unit(rep, "monitor.denials", count("monitor.decisions.denied"));
  set_unit(rep, "monitor.notifications", count("monitor.notifications"));
  set_unit(rep, "monitor.notify_per_query",
           ratio(count("monitor.notifications"), queries));
  set_unit(rep, "vfs.device.opens", count("vfs.device.opens"));
  set_unit(rep, "vfs.device.denials", count("vfs.device.denials"));
  set_unit(rep, "ipc.pty.send_stamps", count("ipc.pty.send_stamps"));
  set_unit(rep, "ipc.pty.recv_adoptions", count("ipc.pty.recv_adoptions"));
  double sends = 0;
  double adoptions = 0;
  for (const char* fam : {"pipe", "fifo", "msgq", "socket"}) {
    const std::string p = std::string("ipc.") + fam;
    const double s = count(p + ".send_stamps");
    const double r = count(p + ".recv_adoptions");
    set_unit(rep, p + ".send_stamps", s);
    set_unit(rep, p + ".recv_adoptions", r);
    sends += s;
    adoptions += r;
  }
  set_unit(rep, "ipc.adoption_ratio", ratio(adoptions, sends));
  set_unit(rep, "shm.faults", count("ipc.shm.page_faults"));
  set_unit(rep, "shm.rearms", count("ipc.shm.rearms"));
  set_unit(rep, "fleet.xshard.sends", count("ipc.xshard.send_stamps"));
  set_unit(rep, "fleet.xshard.adoptions", count("ipc.xshard.recv_adoptions"));
}

void layer_busy(Report& rep, const Tracer& t) {
  const auto self = t.self_ms();
  auto busy = [&](Layer l) { return self[static_cast<std::size_t>(l)]; };
  set_unit(rep, "x11.input.busy_ms", busy(Layer::kX11Input));
  set_unit(rep, "x11.selection.busy_ms", busy(Layer::kX11Selection));
  set_unit(rep, "x11.screen.busy_ms", busy(Layer::kX11Screen));
  set_unit(rep, "wl.input.busy_ms", busy(Layer::kWlInput));
  set_unit(rep, "wl.data_device.busy_ms", busy(Layer::kWlDataDevice));
  set_unit(rep, "wl.screencopy.busy_ms", busy(Layer::kWlScreencopy));
  set_unit(rep, "monitor.busy_ms", busy(Layer::kMonitor));
  set_unit(rep, "vfs.open.busy_ms", busy(Layer::kVfsOpen));
  set_unit(rep, "vfs.create.busy_ms", busy(Layer::kVfsCreate));
  set_unit(rep, "process.busy_ms", busy(Layer::kProcess));
  set_unit(rep, "pty.busy_ms", busy(Layer::kPty));
  set_unit(rep, "ipc.busy_ms", busy(Layer::kIpc));
  set_unit(rep, "shm.busy_ms", busy(Layer::kShm));
  set_unit(rep, "sim.scheduler.busy_ms", busy(Layer::kScheduler));
  set_unit(rep, "fleet.step.busy_ms", busy(Layer::kFleetStep));
  set_unit(rep, "fleet.beat.busy_ms", busy(Layer::kFleetBeat));
  set_unit(rep, "fleet.xshard.busy_ms", busy(Layer::kFleetXshard));
  double harness = 0;
  double layers = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    (is_harness(static_cast<Layer>(i)) ? harness : layers) += self[i];
  }
  const double traced_ms = t.root_ms() - t.overhead_ms();
  set_unit(rep, "harness.busy_ms", harness);
  set_unit(rep, "trace.coverage", ratio(layers, traced_ms));
  set_unit(rep, "trace.spans", static_cast<double>(t.records().size()));
  std::printf("traced run: %zu spans costing %.3f ms (measured in place and "
              "deducted, %.1f ns each of it calibrated); self time by layer "
              "(ms):\n",
              t.records().size(), t.overhead_ms(), t.residual_ns());
  for (std::size_t i = 0; i < kLayerCount; ++i)
    if (self[i] > 0)
      std::printf("  %-16s %10.3f\n", layer_name(static_cast<Layer>(i)),
                  self[i]);
  std::printf("  layers cover %.1f%% of %.3f ms of root spans net of "
              "%.3f ms tracing\n",
              100 * ratio(layers, traced_ms), t.root_ms(), t.overhead_ms());
}

void write_trace(const Tracer& t, const Args& a) {
  // Spans stay in memory during the run and are written once it ends; the
  // fleet's million-span runs are cut to their first kChromeSpansMax.
  const std::string path = a.out + "/perfbench-trace-" + a.workload + ".json";
  if (t.write_chrome(path, kChromeSpansMax))
    std::printf("trace written to %s (%zu of %zu spans)\n", path.c_str(),
                std::min(t.records().size(), kChromeSpansMax),
                t.records().size());
}

void probes_and_audit(Report& rep, const Args& a, const Count& count,
                      const Tracer& t) {
  const ProbeResult p = run_probes(a.seed);
  set_unit(rep, "probe.monitor_check_ns", p.monitor_check_ns);
  set_unit(rep, "probe.audit_append_ns", p.audit_append_ns);
  set_unit(rep, "probe.netlink_send_coalesced_ns", p.netlink_coalesced_ns);
  set_unit(rep, "probe.netlink_send_uncoalesced_ns",
           p.netlink_uncoalesced_ns);
  set_unit(rep, "probe.lookup_live_ns", p.lookup_live_ns);
  const double queries = count("monitor.queries");
  const double appended = rep.get("audit.appended");
  const double sends =
      count("x11.input.notifications") + count("wl.input.notifications");
  set_unit(rep, "probe.monitor_check_est_ms", p.monitor_check_ns * queries / 1e6);
  set_unit(rep, "probe.audit_append_est_ms", p.audit_append_ns * appended / 1e6);
  set_unit(rep, "probe.netlink_send_est_ms",
           p.netlink_coalesced_ns * sends / 1e6);
  const auto self = t.self_ms();
  auto busy = [&](std::initializer_list<Layer> ls) {
    double ms = 0;
    for (Layer l : ls) ms += self[static_cast<std::size_t>(l)];
    return ms;
  };
  std::printf("probes (%s):\n", probe_configuration());
  std::printf("  check        %7.1f ns x %.0f queries = %9.3f ms  vs %9.3f ms "
              "busy in the layers that decide\n",
              p.monitor_check_ns, queries, p.monitor_check_ns * queries / 1e6,
              busy({Layer::kMonitor, Layer::kVfsOpen, Layer::kX11Selection,
                    Layer::kX11Screen, Layer::kWlDataDevice,
                    Layer::kWlScreencopy}));
  std::printf("  audit append %7.1f ns x %.0f records = %9.3f ms\n",
              p.audit_append_ns, appended, p.audit_append_ns * appended / 1e6);
  std::printf("  netlink send %7.1f ns coalesced, %.1f ns not, x %.0f "
              "notifications = %9.3f ms  vs %9.3f ms busy in input\n",
              p.netlink_coalesced_ns, p.netlink_uncoalesced_ns, sends,
              p.netlink_coalesced_ns * sends / 1e6,
              busy({Layer::kX11Input, Layer::kWlInput}));
  std::printf("  lookup_live  %7.1f ns\n", p.lookup_live_ns);

  for (const std::size_t fill : {8u, 64u, 1024u}) {
    const AuditBytes b = audit_bytes_per_record(fill);
    set_unit(rep, "audit.bytes_per_record." + std::to_string(fill), b.binary);
    set_unit(rep, "audit.text_bytes_per_record." + std::to_string(fill),
             b.text);
    std::printf("audit ring at %4zu records: %8.1f B/record binary, %6.1f "
                "B/record as text\n",
                fill, b.binary, b.text);
  }
}

void added_ns(Report& rep, const OpStats& on, const OpStats& off) {
  const struct {
    const char* name;
    const Samples* on;
    const Samples* off;
  } ops[] = {{"input", &on.input, &off.input},
             {"open", &on.open, &off.open},
             {"paste", &on.paste, &off.paste},
             {"capture", &on.capture, &off.capture},
             {"ipc", &on.ipc, &off.ipc},
             {"spawn", &on.spawn, &off.spawn},
             {"create", &on.create, &off.create}};
  std::printf("Overhaul's added cost, p50 with vs without (quartiles in ns):\n");
  for (const auto& op : ops) {
    if (op.on->n() == 0 || op.off->n() == 0) continue;
    const double d = op.on->p50() - op.off->p50();
    set_unit(rep, std::string("overhaul.added_ns.") + op.name, d);
    std::printf("  %-8s %+10.1f ns  on [%.1f %.1f %.1f]  off [%.1f %.1f %.1f]\n",
                op.name, d, op.on->quantile(0.25), op.on->p50(),
                op.on->quantile(0.75), op.off->quantile(0.25), op.off->p50(),
                op.off->quantile(0.75));
  }
  if (on.shm_steps > 0 && off.shm_steps > 0) {
    const double son = on.shm_ns / static_cast<double>(on.shm_steps);
    const double soff = off.shm_ns / static_cast<double>(off.shm_steps);
    set_unit(rep, "overhaul.added_ns.shm", son - soff);
    std::printf("  %-8s %+10.1f ns  (mean per step: on %.1f, off %.1f)\n",
                "shm", son - soff, son, soff);
  }
}

template <typename W>
Report run_traced_single(const Args& a) {
  Report rep;
  for (const auto& [name, unit] : kLayerMetrics) rep.set(name, 0, unit);

  // Pass 1, untraced: fixes how many episodes or jobs the others replay.
  OpStats on;
  auto first = std::make_unique<W>(a.seed, true);
  first->run({a.seconds * kTracedShare, kTracedUnitsMax}, on);
  const std::uint64_t units = on.units;
  add_oracle(rep, first->oracle(), "untraced pass");
  cross_check_system(rep, first->system(), on.alert_eligible);
  const std::uint64_t decisions = on.decisions;
  first.reset();

  // Pass 2, traced: the same script.
  Tracer tracer;
  tracer.calibrate();
  OpStats traced;
  auto w = std::make_unique<W>(a.seed, true);
  Tracer::install(&tracer);
  w->run({1e9, units}, traced);
  Tracer::install(nullptr);
  add_oracle(rep, w->oracle(), "traced pass");
  rep.require(traced.units == units && traced.decisions == decisions,
              "traced pass replays the untraced pass's decisions");

  // Pass 3: the same script on the unmodified system.
  OpStats off;
  {
    W baseline(a.seed, false);
    baseline.run({1e9, units}, off);
    add_oracle(rep, baseline.oracle(), "baseline pass");
  }

  OverhaulSystem& sys = w->system();
  const Count count = [&](const std::string& n) { return double(counter(sys, n)); };
  layer_counts(rep, count);
  layer_busy(rep, tracer);
  set_unit(rep, "audit.appended", double(sys.audit().total_appended()));
  set_unit(rep, "audit.dropped", double(sys.audit().dropped()));
  set_unit(rep, "audit.ring_mib", double(sys.audit().memory_bytes()) / 1048576.0);
  set_unit(rep, "process.live_peak", double(traced.live_peak));
  set_unit(rep, "shm.fault_ratio",
           ratio(count("ipc.shm.page_faults"), 2.0 * double(traced.shm_steps)));
  set_unit(rep, "trace.overhead_pct",
           100 * ratio(traced.timed_s - on.timed_s, on.timed_s));
  added_ns(rep, on, off);
  probes_and_audit(rep, a, count, tracer);
  write_trace(tracer, a);
  return rep;
}

Report run_traced_fleet(const Args& a) {
  Report rep;
  for (const auto& [name, unit] : kLayerMetrics) rep.set(name, 0, unit);

  // Pass 1: the configured lane count, lanes timing their own beats.
  FleetStats lanes;
  std::unique_ptr<FleetWorkload> w =
      std::make_unique<FleetWorkload>(FleetOptions{a.seats, a.lanes, a.seed, true});
  w->run({a.seconds * kTracedShare, kTracedQuantaMax}, lanes);
  w->tally(lanes);
  const std::uint64_t quanta = lanes.units;
  rep.attempted += lanes.attempted;
  rep.failed += lanes.failed;
  cross_check_fleet(rep, *w, lanes.alert_eligible);
  auto& f = w->harness();
  const Count count = [&](const std::string& n) {
    return double(f.aggregate_counter(n));
  };
  const std::int64_t r0 = wall_ns();
  layer_counts(rep, count);
  set_unit(rep, "fleet.rollup_ms", lanes.rollup_ms +
                                       static_cast<double>(wall_ns() - r0) / 1e6);
  double ring = 0;
  double appended = 0;
  double dropped = 0;
  double live = 0;
  for (int id = 0; id < f.shard_count(); ++id) {
    auto& k = f.shard(id).kernel();
    ring += double(k.audit().memory_bytes());
    appended += double(k.audit().total_appended());
    dropped += double(k.audit().dropped());
    live += double(k.processes().live_count());
  }
  set_unit(rep, "audit.appended", appended);
  set_unit(rep, "audit.dropped", dropped);
  set_unit(rep, "audit.ring_mib", ring / 1048576.0);
  set_unit(rep, "process.live_peak", live);
  set_unit(rep, "fleet.lane.busy_ms", lanes.lane_busy_ms);
  set_unit(rep, "fleet.lane_utilization",
           ratio(lanes.lane_busy_ms,
                 f.threads() * lanes.timed_s * 1e3));
  set_unit(rep, "fleet.coordinator_ms", lanes.coordinator_ms);
  set_unit(rep, "fleet.boot_ms", w->boot_s() * 1e3);
  const int lane_count = f.threads();
  w.reset();

  // Pass 2: one lane, untraced, for the tracing overhead.
  FleetStats serial;
  {
    FleetWorkload s(FleetOptions{a.seats, 1, a.seed, false});
    s.run({1e9, quanta}, serial);
    s.tally(serial);
    rep.attempted += serial.attempted;
    rep.failed += serial.failed;
  }

  // Pass 3: one lane, traced; decisions must match the lane-count pass.
  Tracer tracer;
  tracer.calibrate();
  FleetStats traced;
  {
    FleetWorkload t(FleetOptions{a.seats, 1, a.seed, false});
    Tracer::install(&tracer);
    t.run({1e9, quanta}, traced);
    Tracer::install(nullptr);
    t.tally(traced);
    rep.attempted += traced.attempted;
    rep.failed += traced.failed;
  }
  rep.require(traced.granted == lanes.granted && traced.denied == lanes.denied &&
                  serial.granted == lanes.granted,
              "grant/deny totals identical at " + std::to_string(lane_count) +
                  " lanes and at 1 lane");
  layer_busy(rep, tracer);
  set_unit(rep, "trace.overhead_pct",
           100 * ratio(traced.timed_s - serial.timed_s, serial.timed_s));
  std::printf("fleet traced run: %llu quanta; %d lanes %.3f s, 1 lane %.3f s "
              "untraced, %.3f s traced\n",
              static_cast<unsigned long long>(quanta), lane_count,
              lanes.timed_s, serial.timed_s, traced.timed_s);
  // The lane-count pass's counts are already in the report.
  probes_and_audit(rep, a, [&](const std::string& n) { return rep.get(n); },
                   tracer);
  write_trace(tracer, a);
  return rep;
}

Report run(const Args& a) {
  if (a.trace == 0) return run_untraced(a);
  if (a.workload == "desktop") return run_traced_single<DesktopWorkload>(a);
  if (a.workload == "cli") return run_traced_single<CliWorkload>(a);
  return run_traced_fleet(a);
}

// --- self-test -------------------------------------------------------------------

int selftest(const std::string& out) {
  bool ok = true;
  for (const char* workload : {"desktop", "cli", "fleet"}) {
    for (const int trace : {0, 1}) {
      Args a;
      a.workload = workload;
      a.seed = 3;
      a.seconds = 0.3;
      a.trace = trace;
      a.seats = 32;
      a.out = out;
      const Report r = run(a);
      const std::string json = r.to_json();
      std::string err;
      const bool valid = overhaul::obs::json::validate(json, &err);
      const bool good = valid && r.correct && r.failed == 0 && r.attempted > 0;
      std::printf("selftest %-7s trace %d: %s (%llu ops)%s%s\n", workload,
                  trace, good ? "ok" : "FAIL",
                  static_cast<unsigned long long>(r.attempted),
                  valid ? "" : " invalid JSON: ", err.c_str());
      ok = ok && good;
    }
  }
  // A deliberately wrong oracle entry must surface as exactly one failed op.
  DesktopWorkload w(5, true);
  w.oracle().corrupt_next();
  OpStats st;
  w.run({0.2}, st);
  const bool caught = w.oracle().failed() == 1;
  std::printf("selftest wrong oracle entry: %s (%llu failed of %llu)\n",
              caught ? "ok" : "FAIL",
              static_cast<unsigned long long>(w.oracle().failed()),
              static_cast<unsigned long long>(w.oracle().attempted()));
  ok = ok && caught;

  // P2 decides verdicts: an oracle that ignores what one carrier delivers
  // must count failed ops, for every carrier on the way to a mic open.
  auto dropped = [&](const char* carrier, std::uint64_t failed) {
    std::printf("selftest oracle ignores %-6s adoptions: %s (%llu failed)\n",
                carrier, failed > 0 ? "ok" : "FAIL",
                static_cast<unsigned long long>(failed));
    ok = ok && failed > 0;
  };
  using Carrier = CliWorkload::Carrier;
  for (const auto& [carrier, name] :
       {std::pair{Carrier::kPty, "pty"}, {Carrier::kShm, "shm"},
        {Carrier::kPipe, "pipe"}, {Carrier::kSocket, "socket"},
        {Carrier::kFifo, "fifo"}, {Carrier::kMq, "mq"}}) {
    CliWorkload c(5, true);
    c.ignore_adoption(carrier);
    OpStats cs;
    c.run({0.2}, cs);
    dropped(name, c.oracle().failed());
  }
  {
    FleetOptions fo{32, 2, 5, false};
    fo.ignore_link_adoption = true;
    FleetWorkload f(fo);
    OpStats fs;
    f.run({1e9, 20}, fs);
    FleetStats tally;
    f.tally(tally);
    dropped("xshard", tally.failed);
  }
  std::printf("selftest: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload desktop|cli|fleet --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench --selftest [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      self = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      a.out = argv[++i];

    } else {
      return usage();
    }
  }
  if (self) return selftest(a.out);
  if ((a.workload != "desktop" && a.workload != "cli" && a.workload != "fleet") ||
      a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
    return usage();
  std::printf("perfbench %s seed %llu, %.1f s, trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  const Report rep = run(a);
  std::fflush(stdout);
  std::printf("%s\n", rep.to_json().c_str());
  return rep.correct && rep.failed == 0 ? 0 : 1;
}

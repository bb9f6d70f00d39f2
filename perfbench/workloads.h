// The three workloads. Each is a seeded, closed-loop script over the public
// API: the next call is issued only after the previous one returns, and the
// program sees only the generated calls, never the seed.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/runtime.h"
#include "apps/terminal.h"
#include "common.h"
#include "core/system.h"
#include "fleet/harness.h"
#include "util/rng.h"

namespace perfbench {

// A run ends after `seconds` of wall time or `max_units` episodes, jobs or
// quanta, whichever comes first.
struct Limits {
  double seconds = 1;
  std::uint64_t max_units = std::numeric_limits<std::uint64_t>::max();
};

// What a run measured, op by op.
struct OpStats {
  Samples input;      // one HardwareInputDriver click or key call
  Samples open;       // sys_open + sys_close of a sensitive device node
  Samples paste;      // one full paste round trip
  Samples capture;    // one full-screen capture
  Samples job;        // one terminal job, first keystroke to last exit
  Samples ipc;        // one P2-stamped message write + read
  // The same messages by carrier: pipe, socketpair, FIFO, mq.
  static constexpr std::size_t kIpcCarriers = 4;
  Samples ipc_by_carrier[kIpcCarriers];
  Samples spawn;      // spawn plus exit of one pipeline stage
  Samples create;     // create + close of one /tmp file
  Samples iteration;  // one episode, job or fleet quantum
  double shm_ns = 0;             // total wall time of chained shm steps
  std::uint64_t shm_steps = 0;   // chained 8-byte read+write steps
  std::uint64_t units = 0;       // episodes, jobs or quanta run
  double timed_s = 0;            // wall time of the measured loop
  std::uint64_t decisions = 0;   // monitor decisions taken in the loop
  std::uint64_t alert_eligible = 0;  // mediated mic/cam/capture decisions
  std::size_t live_peak = 0;     // most live processes seen
};

// desktop: one X11 seat, two GUI apps, a background daemon that never
// receives input and a clipboard manager that serves pastes. The user sends
// bursts of input to one app, which then performs one mediated op; the
// daemon tries the same ops.
class DesktopWorkload {
 public:
  DesktopWorkload(std::uint64_t seed, bool mediated);
  void run(const Limits& limits, OpStats& stats);

  [[nodiscard]] overhaul::core::OverhaulSystem& system() { return *sys_; }
  [[nodiscard]] Oracle& oracle() { return oracle_; }

 private:
  void episode(OpStats& stats);
  void app_op(int op, overhaul::apps::GuiApp& app, OpStats& stats);
  void advance(overhaul::sim::Duration d);

  overhaul::util::Rng rng_;
  Oracle oracle_;
  std::unique_ptr<overhaul::core::OverhaulSystem> sys_;
  std::unique_ptr<overhaul::apps::GuiApp> apps_[2];
  std::unique_ptr<overhaul::apps::GuiApp> daemon_;
  std::unique_ptr<overhaul::apps::GuiApp> clipboard_;  // owns CLIPBOARD
  std::string payload_;
};

// cli: one X11 seat running terminal jobs: keystroke -> pty -> shell fork
// (P1) of stage 0 -> a shared 10,000-page shm mapping to stage 1 -> stages
// joined by pipe, socketpair, FIFO and POSIX mq, Bonnie-style file creates,
// and a mic open by the last stage. Stages 1..n-1 start before the
// keystroke, so the last stage's verdict rests on every P2 hop. Cron-style
// jobs run without a keystroke and must be denied.
class CliWorkload {
 public:
  static constexpr std::size_t kShmPages = 10'000;
  static constexpr int kShmStepsPerStage = 128;
  // What carries an interaction stamp from one process to the next.
  enum class Carrier : std::uint8_t { kPty, kShm, kPipe, kSocket, kFifo, kMq };

  CliWorkload(std::uint64_t seed, bool mediated);
  void run(const Limits& limits, OpStats& stats);
  // Self-test hook: the oracle no longer adopts stamps received over
  // `carrier`, so every grant that rests on that hop counts as a failed op.
  void ignore_adoption(Carrier carrier) {
    ignored_ |= 1u << static_cast<unsigned>(carrier);
  }

  [[nodiscard]] overhaul::core::OverhaulSystem& system() { return *sys_; }
  [[nodiscard]] Oracle& oracle() { return oracle_; }

 private:
  void job(OpStats& stats);
  void advance(overhaul::sim::Duration d);
  // The oracle's side of a receive over `carrier`.
  void recv(Carrier carrier, std::uintptr_t key, overhaul::kern::Pid to);

  overhaul::util::Rng rng_;
  Oracle oracle_;
  unsigned ignored_ = 0;  // carriers whose adoptions the oracle ignores
  std::unique_ptr<overhaul::core::OverhaulSystem> sys_;
  std::unique_ptr<overhaul::apps::TerminalSession> term_;
  std::shared_ptr<overhaul::kern::ShmSegment> segment_;
  std::shared_ptr<overhaul::kern::PosixMq> mq_;
  std::vector<std::uint32_t> next_page_;  // the chain the shm steps follow
  std::size_t cursor_ = 0;                // where the next job's walk starts
  std::uint64_t jobs_ = 0;
  std::uintptr_t next_channel_ = 1000;    // oracle keys for per-job channels

  // One job's pipeline, reused from job to job.
  struct Channel {
    Carrier carrier;
    int rfd = -1;
    int wfd = -1;
    std::uintptr_t key = 0;
  };
  std::vector<Channel> channels_;
  std::vector<std::size_t> sizes_;
  std::vector<overhaul::kern::Pid> pids_;
  std::vector<double> spawn_ns_;
  std::vector<std::string> comms_;  // stage i's name
  std::vector<std::string> files_;  // stage i's output file
  std::string payload_;
};

// fleet: many seats with mixed backends, an XShardLink between seat pairs,
// stepped by FleetHarness::step() on the parallel engine. Each seat runs a
// beat in its own scheduler that fires every quantum.
struct FleetOptions {
  int seats = 1024;
  int lanes = 1;
  std::uint64_t seed = 1;
  // Time each beat inside its lane into per-lane buffers (lane busy time).
  bool lane_timing = false;
  // Self-test hook: the oracle ignores what listener seats receive over
  // their links, so their link-borne grants count as failed ops.
  bool ignore_link_adoption = false;
};

struct FleetStats : OpStats {
  double lane_busy_ms = 0;     // beat time summed over lanes
  double coordinator_ms = 0;   // sum over quanta of wall - slowest lane
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  double rollup_ms = 0;        // aggregate-on-read counter rollups
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct LaneAcc;
struct LinkShadow;

class FleetWorkload {
 public:
  explicit FleetWorkload(const FleetOptions& options);
  ~FleetWorkload();
  FleetWorkload(const FleetWorkload&) = delete;
  FleetWorkload& operator=(const FleetWorkload&) = delete;

  // Steps quanta; `stats` receives the quanta's timings, decision counts
  // and the per-op samples the lanes took during them.
  void run(const Limits& limits, OpStats& stats);

  [[nodiscard]] overhaul::fleet::FleetHarness& harness() { return *fleet_; }
  [[nodiscard]] double boot_s() const noexcept { return boot_s_; }
  // Oracle tallies, decision totals and lane figures over every run so far.
  void tally(FleetStats& stats) const;
  struct Seat;

 private:
  FleetOptions options_;
  std::vector<LaneAcc> lanes_;  // one per engine lane
  overhaul::sim::Duration quantum_;
  overhaul::sim::Duration delta_;
  std::string payload_;
  std::uint64_t setup_failures_ = 0;
  double boot_s_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t denied_ = 0;
  double coordinator_ms_ = 0;
  double rollup_ms_ = 0;
  std::unique_ptr<overhaul::fleet::FleetHarness> fleet_;
  std::vector<LinkShadow> links_;
  // Declared last: seats are destroyed before the fleet whose shards they
  // point into.
  std::vector<std::unique_ptr<Seat>> seats_;
};

// Reads one counter from a single seat's registry.
std::uint64_t counter(overhaul::core::OverhaulSystem& sys,
                      const std::string& name);

}  // namespace perfbench

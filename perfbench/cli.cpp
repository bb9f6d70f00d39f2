// cli workload: terminal jobs that fan a keystroke out through the pty, the
// shell's fork, a multi-family IPC pipeline and a shared mapping to the
// stage that opens the microphone.
#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;
using util::Code;

namespace {

// One in four jobs is cron-style: no keystroke, so its mic open is denied.
// Every job starts more than δ after the previous one, so no stage inherits
// a fresh stamp from the shell's last command.
constexpr double kCronShare = 0.25;

// As on desktop: a bounded audit ring the warm-up slice fills.
constexpr std::size_t kAuditCapacity = std::size_t{1} << 12;

// Each job's walk starts this many pages after the previous job's, so
// consecutive jobs share most of their pages and the walk stays cache
// resident: a step then costs the page-fault engine's check plus an L1/L2
// access, not a trip to memory whose latency other tenants decide. Over
// about 1,400 jobs the walk crosses the whole mapping.
constexpr std::size_t kShmAdvance = 7;

using Carrier = CliWorkload::Carrier;
constexpr int kMaxStages = 5;
constexpr const char* kFifoPath = "/tmp/pipeline.fifo";
constexpr std::uintptr_t kPtyKey = 1;
constexpr std::uintptr_t kFifoKey = 2;
constexpr std::uintptr_t kMqKey = 3;
constexpr std::uintptr_t kShmKey = 4;

// Where page p's chain slot sits: moved along the page from page to page,
// so consecutive steps hit different cache sets.
std::size_t slot_offset(std::size_t page) {
  return page * kern::kPageSize + (page * 136) % (kern::kPageSize - 16);
}

}  // namespace

CliWorkload::CliWorkload(std::uint64_t seed, bool mediated)
    : rng_(seed * 0xD1B54A32D192ED03ULL + 7), oracle_(mediated) {
  core::OverhaulConfig cfg = mediated ? core::OverhaulConfig{}
                                      : core::OverhaulConfig::baseline();
  cfg.trace = false;
  sys_ = std::make_unique<core::OverhaulSystem>(cfg);
  sys_->audit().set_capacity(kAuditCapacity);
  auto term = apps::TerminalSession::launch(*sys_);
  if (!oracle_.ok(term.status())) return;
  term_ = std::move(term).value();
  kern::Kernel& k = sys_->kernel();
  const kern::Pid shell = term_->shell_pid();
  if (!k.vfs().exists("/tmp")) oracle_.ok(k.sys_mkdir(shell, "/tmp"));
  oracle_.ok(k.sys_mkfifo(shell, kFifoPath));
  auto mq = k.posix_mqs().open("/pipeline", /*create=*/true, 16);
  if (oracle_.ok(mq.status())) mq_ = std::move(mq).value();
  auto seg = k.posix_shms().open("/pipeline-shm", /*create=*/true,
                                 kShmPages * kern::kPageSize);
  if (oracle_.ok(seg.status())) segment_ = std::move(seg).value();

  // One cycle through every page: slot(p) holds the page that follows p,
  // so each shm step depends on the value the previous one read.
  next_page_.assign(kShmPages, 0);
  for (std::size_t p = 0; p < kShmPages; ++p)
    next_page_[p] = static_cast<std::uint32_t>((p + 1) % kShmPages);
  cursor_ = static_cast<std::size_t>(rng_.next_below(kShmPages));
  if (segment_ != nullptr) {
    for (std::size_t p = 0; p < kShmPages; ++p) {
      const std::uint64_t next = next_page_[p];
      std::memcpy(segment_->data() + slot_offset(p), &next, sizeof next);
    }
  }

  // Stage names and output files, by stage; every job removes its files.
  for (int i = 0; i < kMaxStages; ++i) {
    comms_.push_back("stage" + std::to_string(i));
    files_.push_back("/tmp/out." + std::to_string(i));
  }

  // Focus the terminal, as the user did when they opened it, then let that
  // input go stale.
  auto [x, y] = term_->click_point();
  sys_->input().click(x, y);
  oracle_.input(term_->pid(), sys_->clock().now());
  sys_->advance(sim::Duration::seconds(3));
}

void CliWorkload::advance(sim::Duration d) {
  Span s(Layer::kScheduler);
  sys_->advance(d);
}

void CliWorkload::run(const Limits& limits, OpStats& stats) {
  if (term_ == nullptr || mq_ == nullptr || segment_ == nullptr) return;
  const std::uint64_t before = counter(*sys_, "monitor.decisions.granted") +
                               counter(*sys_, "monitor.decisions.denied");
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(limits.seconds * 1e9);
  std::uint64_t n = 0;
  while (n < limits.max_units && wall_ns() - start < budget) {
    const std::int64_t t0 = wall_ns();
    {
      Span root(Layer::kCliJob);
      job(stats);
    }
    stats.iteration.add(static_cast<double>(wall_ns() - t0));
    ++n;
  }
  stats.timed_s += static_cast<double>(wall_ns() - start) / 1e9;
  stats.units += n;
  stats.decisions += counter(*sys_, "monitor.decisions.granted") +
                     counter(*sys_, "monitor.decisions.denied") - before;
  // Rotate the alert log, as on desktop.
  sys_->display().alert_overlay().clear_history();
}

void CliWorkload::recv(Carrier carrier, std::uintptr_t key, kern::Pid to) {
  if ((ignored_ & (1u << static_cast<unsigned>(carrier))) == 0)
    oracle_.recv(key, to);
}

void CliWorkload::job(OpStats& stats) {
  kern::Kernel& k = sys_->kernel();
  const kern::Pid term = term_->pid();
  const kern::Pid shell = term_->shell_pid();
  const std::uint64_t job_id = jobs_++;

  // Draws first, independent of outcomes (the baseline replays them).
  const bool cron = rng_.chance(kCronShare);
  const auto gap = sim::Duration::millis(rng_.uniform(2'100, 4'000));
  const int stages = 3 + static_cast<int>(rng_.next_below(kMaxStages - 2));
  // Stage 0 hands its work to stage 1 through the shared mapping; every
  // later pair is joined by a message channel. The per-job lists are members
  // reused across jobs, which keeps the script's own work small next to the
  // layers'.
  channels_.clear();
  for (int i = 2; i < stages; ++i) {
    const auto family = static_cast<int>(rng_.next_below(4));
    channels_.push_back(
        {static_cast<Carrier>(static_cast<int>(Carrier::kPipe) + family)});
  }
  sizes_.clear();
  for (int i = 2; i < stages; ++i) sizes_.push_back(64 + rng_.next_below(449));
  const int keycode = 30 + static_cast<int>(rng_.next_below(26));

  advance(gap);
  const std::int64_t job_start = wall_ns();

  // The shell sets up the message channels, then starts stages 1..n-1: a
  // pipeline waiting for its input. They inherit the descriptors, as under
  // bash, and only the shell's stamp from the previous job, which δ has
  // outlived by now, so their fresh stamp can only arrive over the pipeline.
  util::Status setup = util::Status::ok();
  timed(Layer::kIpc, [&] {
    for (Channel& c : channels_) {
      c.rfd = c.wfd = -1;
      if (c.carrier == Carrier::kPipe || c.carrier == Carrier::kSocket) {
        auto fds = c.carrier == Carrier::kPipe ? k.sys_pipe(shell)
                                               : k.sys_socketpair(shell);
        if (!fds.is_ok()) {
          setup = fds.status();
        } else if (c.carrier == Carrier::kPipe) {
          std::tie(c.rfd, c.wfd) = fds.value();
        } else {
          std::tie(c.wfd, c.rfd) = fds.value();
        }
      }
    }
  });
  if (!oracle_.ok(setup)) return;
  for (Channel& c : channels_) {
    c.key = c.rfd >= 0 ? next_channel_++
                       : (c.carrier == Carrier::kFifo ? kFifoKey : kMqKey);
  }

  std::vector<kern::Pid>& pids = pids_;
  std::vector<double>& spawn_ns = spawn_ns_;
  pids.assign(static_cast<std::size_t>(stages), 0);
  spawn_ns.assign(static_cast<std::size_t>(stages), 0);
  for (int i = 1; i < stages; ++i) {
    util::Result<kern::Pid> pid = not_run();
    spawn_ns[i] = timed(Layer::kProcess, [&] {
      pid = k.sys_spawn(shell, "/usr/bin/stage", comms_[i]);
    });
    if (!oracle_.ok(pid.status())) return;
    oracle_.inherit(shell, pid.value());
    pids[i] = pid.value();
  }

  // The command line: a keystroke (none for a cron job), the terminal writes
  // it to the pty, the shell reads it and forks stage 0 (P1).
  if (!cron) {
    stats.input.add(
        timed(Layer::kX11Input, [&] { sys_->input().key(keycode); }));
    oracle_.input(term, sys_->clock().now());
  }
  util::Status typed = util::Status::ok();
  timed(Layer::kPty, [&] {
    typed = term_->type_command_line("stage0 --job " + std::to_string(job_id));
  });
  oracle_.ok(typed);
  oracle_.send(kPtyKey, term);
  util::Result<kern::Pid> first = not_run();
  timed(Layer::kPty, [&] { first = term_->shell_read_and_spawn(); });
  recv(Carrier::kPty, kPtyKey, shell);
  if (!oracle_.ok(first.status())) return;
  oracle_.inherit(shell, first.value());
  pids[0] = first.value();
  stats.live_peak = std::max(stats.live_peak, k.processes().live_count());
  util::Status closed_all = util::Status::ok();
  timed(Layer::kIpc, [&] {
    for (const Channel& c : channels_) {
      for (const int fd : {c.rfd, c.wfd}) {
        if (fd < 0) continue;
        const util::Status s = k.sys_close(shell, fd);
        if (!s.is_ok()) closed_all = s;
      }
    }
  });
  oracle_.ok(closed_all);

  // Stages 0 and 1 share the segment and walk its chain: the writer's first
  // access is a store (it stamps the segment in the fault handler), the
  // reader's a load (it adopts the stamp).
  {
    const kern::Pid a = pids[0];
    const kern::Pid b = pids[1];
    util::Result<std::shared_ptr<kern::ShmMapping>> map_a = not_run();
    util::Result<std::shared_ptr<kern::ShmMapping>> map_b = not_run();
    kern::TaskStruct* ta = nullptr;
    kern::TaskStruct* tb = nullptr;
    timed(Layer::kShm, [&] {
      map_a = k.sys_mmap_shared(a, segment_);
      map_b = k.sys_mmap_shared(b, segment_);
      ta = k.processes().lookup_live(a);
      tb = k.processes().lookup_live(b);
    });
    if (!oracle_.ok(map_a.status()) || !oracle_.ok(map_b.status())) return;
    oracle_.check(ta != nullptr && tb != nullptr);
    if (ta == nullptr || tb == nullptr) return;
    kern::ShmMapping& ma = *map_a.value();
    kern::ShmMapping& mb = *map_b.value();
    std::size_t cur = cursor_;
    std::uint64_t mismatches = 0;
    stats.shm_ns += timed(Layer::kShm, [&] {
      for (int step = 0; step < kShmStepsPerStage; ++step) {
        ma.write_u64(*ta, slot_offset(cur) + 8, job_id);
        const std::uint64_t next = ma.read_u64(*ta, slot_offset(cur));
        mismatches += next != next_page_[cur];
        cur = static_cast<std::size_t>(next % kShmPages);
      }
      for (int step = 0; step < kShmStepsPerStage; ++step) {
        const std::uint64_t next = mb.read_u64(*tb, slot_offset(cur));
        mb.write_u64(*tb, slot_offset(cur) + 8, job_id);
        mismatches += next != next_page_[cur];
        cur = static_cast<std::size_t>(next % kShmPages);
      }
    });
    stats.shm_steps += 2 * kShmStepsPerStage;
    cursor_ = (cursor_ + kShmAdvance) % kShmPages;
    oracle_.check(mismatches == 0);
    oracle_.send(kShmKey, a);
    recv(Carrier::kShm, kShmKey, b);
  }

  // Stage i sends one message to stage i+1 over its channel.
  std::string& payload = payload_;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& c = channels_[i];
    const kern::Pid from = pids[i + 1];
    const kern::Pid to = pids[i + 2];
    payload.assign(sizes_[i], static_cast<char>('a' + (job_id + i) % 26));
    util::Result<std::string> got = not_run();
    util::Status sent = not_run();
    auto book_ipc = [&](double ns) {
      stats.ipc.add(ns);
      stats.ipc_by_carrier[static_cast<int>(c.carrier) -
                           static_cast<int>(Carrier::kPipe)]
          .add(ns);
    };
    if (c.carrier == Carrier::kFifo) {
      util::Result<int> w = not_run();
      util::Result<int> r = not_run();
      timed(Layer::kIpc, [&] {
        w = k.sys_open(from, kFifoPath, kern::OpenFlags::kWrite);
        r = k.sys_open(to, kFifoPath, kern::OpenFlags::kRead);
      });
      if (!oracle_.ok(w.status()) || !oracle_.ok(r.status())) return;
      book_ipc(timed(Layer::kIpc, [&] {
        sent = k.sys_write(from, w.value(), payload).status();
        got = k.sys_read(to, r.value(), 4096);
      }));
      util::Status closed_w = not_run();
      util::Status closed_r = not_run();
      timed(Layer::kIpc, [&] {
        closed_w = k.sys_close(from, w.value());
        closed_r = k.sys_close(to, r.value());
      });
      oracle_.ok(closed_w);
      oracle_.ok(closed_r);
    } else if (c.carrier == Carrier::kMq) {
      kern::TaskStruct* ft = k.processes().lookup_live(from);
      kern::TaskStruct* tt = k.processes().lookup_live(to);
      oracle_.check(ft != nullptr && tt != nullptr);
      if (ft == nullptr || tt == nullptr) return;
      book_ipc(timed(Layer::kIpc, [&] {
        sent = mq_->send(*ft, payload, 0);
        got = mq_->receive(*tt);
      }));
    } else {
      book_ipc(timed(Layer::kIpc, [&] {
        sent = k.sys_write(from, c.wfd, payload).status();
        got = k.sys_read(to, c.rfd, 4096);
      }));
    }
    oracle_.ok(sent);
    oracle_.send(c.key, from);
    if (oracle_.ok(got.status())) oracle_.check(got.value() == payload);
    recv(c.carrier, c.key, to);
  }
  // The anonymous channels die with the stages; the FIFO and mq persist.
  for (const Channel& c : channels_)
    if (c.rfd >= 0) oracle_.close(c.key);

  // Bonnie-style output: every stage creates its file in /tmp.
  for (std::size_t i = 0; i < pids.size(); ++i) {
    util::Result<int> fd = not_run();
    util::Status closed = util::Status::ok();
    stats.create.add(timed(Layer::kVfsCreate, [&] {
      fd = k.sys_open(pids[i], files_[i], kern::OpenFlags::kCreate);
      if (fd.is_ok()) closed = k.sys_close(pids[i], fd.value());
    }));
    if (oracle_.ok(fd.status())) oracle_.ok(closed);
  }

  // The last stage records from the microphone.
  {
    const kern::Pid last = pids.back();
    const bool expect = oracle_.expect_grant(last, sys_->clock().now());
    util::Result<int> fd = not_run();
    util::Status closed = util::Status::ok();
    stats.open.add(timed(Layer::kVfsOpen, [&] {
      fd = k.sys_open(last, core::OverhaulSystem::mic_path(),
                      kern::OpenFlags::kRead);
      if (fd.is_ok()) closed = k.sys_close(last, fd.value());
    }));
    if (oracle_.mediated()) ++stats.alert_eligible;
    if (oracle_.judge(expect, fd.status(), Code::kOverhaulDenied))
      oracle_.ok(closed);
  }

  // Every stage exits and the shell reaps it; then the output is removed.
  for (std::size_t i = 0; i < pids.size(); ++i) {
    util::Status exited = not_run();
    util::Status reaped = not_run();
    const double ns = timed(Layer::kProcess, [&] {
      exited = k.sys_exit(pids[i]);
      reaped = k.processes().reap(pids[i]);
    });
    if (i > 0) stats.spawn.add(spawn_ns[i] + ns);
    oracle_.ok(exited);
    oracle_.ok(reaped);
    oracle_.forget(pids[i]);
  }
  stats.job.add(static_cast<double>(wall_ns() - job_start));
  util::Status unlinked = util::Status::ok();
  timed(Layer::kVfsCreate, [&] {
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const util::Status s = k.sys_unlink(shell, files_[i]);
      if (!s.is_ok()) unlinked = s;
    }
  });
  oracle_.ok(unlinked);
}

}  // namespace perfbench

// TaskStruct: the simulated `task_struct`.
//
// The paper's central kernel change is one new field in `task_struct`: the
// most recent *authentic user interaction* timestamp for the process
// (§IV-B, "Process permission management"). Everything else Overhaul does —
// P1 fork propagation, P2 IPC propagation, pty propagation, device checks —
// reads or writes this field.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/audit_log.h"

namespace overhaul::kern {

using Pid = int;
using Uid = int;

inline constexpr Pid kNoPid = -1;
inline constexpr Uid kRootUid = 0;

// An open file description (what a file descriptor points at). Concrete
// resources (vfs files, pipe ends, pty ends, sockets) subclass this; the fd
// table owns them via shared_ptr because dup()/fork() share descriptions.
class FileDescription {
 public:
  virtual ~FileDescription() = default;
  // Human-readable tag for /proc-style listings and debugging.
  [[nodiscard]] virtual std::string describe() const = 0;
};

// The per-process structure. Owned by the ProcessTable; referenced widely.
//
// Linux does not strictly distinguish threads from processes — every thread
// has its own task_struct (and, under Overhaul, its own interaction
// timestamp, seeded from the creator at clone time exactly like P1).
struct TaskStruct {
  Pid pid = kNoPid;
  Pid ppid = kNoPid;        // parent pid at creation (not re-parented on exit)
  Pid tgid = kNoPid;        // thread-group id (== pid for group leader)
  Uid uid = 0;
  std::string comm;         // process name (set by execve / spawn)
  std::string exe_path;     // absolute path of the executable image
  bool alive = true;
  // Signal state (kern::SignalManager): SIGSTOP/SIGCONT toggle `stopped`,
  // SIGUSR1 adds to `pending_usr1`. Fork does not copy either, and reap()
  // clears both with the rest of the slot, so a recycled pid starts clean.
  bool stopped = false;
  std::uint32_t pending_usr1 = 0;

  // --- Overhaul addition ---------------------------------------------------
  // Most recent authentic user-interaction timestamp. `never()` until the
  // display manager reports an interaction (or one is inherited/propagated).
  sim::Timestamp interaction_ts = sim::Timestamp::never();

  // Adopt a (possibly fresher) interaction timestamp. This single primitive
  // implements the receive side of P1/P2 and the pty protocol: a process's
  // effective timestamp only ever moves forward.
  void adopt_interaction(sim::Timestamp ts) noexcept {
    if (ts > interaction_ts) interaction_ts = ts;
  }

  // Forget any recorded interaction (back to "never interacted"). Test and
  // scenario harnesses use this to discard inherited records; alongside
  // adopt_interaction and the fork-copy it is the only approved way to
  // write interaction_ts (enforced by overhaul-lint rule R3).
  void clear_interaction() noexcept {
    interaction_ts = sim::Timestamp::never();
  }

  // --- ACG comparison mode --------------------------------------------------
  // Per-operation grants from access-control-gadget clicks (the white-box
  // model of Roesner et al. [27], kept for head-to-head comparison). Copied
  // by fork like the rest of the task_struct, but — faithfully to that
  // model's intent-precision — never propagated over IPC.
  //
  // Stored as a dense per-Op array (kOpCount is tiny and fixed) so the
  // monitor's ACG branch is a plain indexed load: no map nodes, no heap.
  static constexpr std::array<sim::Timestamp, util::kOpCount> no_acg_grants() {
    std::array<sim::Timestamp, util::kOpCount> grants{};
    for (auto& g : grants) g = sim::Timestamp::never();
    return grants;
  }
  std::array<sim::Timestamp, util::kOpCount> acg_grants = no_acg_grants();

  void adopt_acg_grant(util::Op op, sim::Timestamp ts) noexcept {
    sim::Timestamp& slot = acg_grants[static_cast<std::size_t>(op)];
    if (ts > slot) slot = ts;
  }

  [[nodiscard]] sim::Timestamp acg_grant(util::Op op) const noexcept {
    return acg_grants[static_cast<std::size_t>(op)];
  }

  // --- ptrace state --------------------------------------------------------
  Pid traced_by = kNoPid;  // tracer pid, or kNoPid when not traced

  // Reverse index: pids this task is currently tracing. Maintained together
  // with `traced_by` (ProcessTable::attach_trace/detach_trace) so exit() can
  // detach tracees in O(|tracees|) instead of scanning the whole table.
  std::vector<Pid> tracees;

  [[nodiscard]] bool is_traced() const noexcept { return traced_by != kNoPid; }

  // --- descriptor table ----------------------------------------------------
  std::map<int, std::shared_ptr<FileDescription>> fds;
  int next_fd = 3;  // 0/1/2 notionally reserved for stdio

  int install_fd(std::shared_ptr<FileDescription> desc) {
    const int fd = next_fd++;
    fds.emplace(fd, std::move(desc));
    return fd;
  }

  [[nodiscard]] std::shared_ptr<FileDescription> fd(int n) const {
    const auto it = fds.find(n);
    return it == fds.end() ? nullptr : it->second;
  }

  bool close_fd(int n) { return fds.erase(n) > 0; }
};

}  // namespace overhaul::kern

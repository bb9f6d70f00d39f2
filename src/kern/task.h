// TaskStruct: the simulated `task_struct`.
//
// The paper's central kernel change is one new field in `task_struct`: the
// most recent *authentic user interaction* timestamp for the process
// (§IV-B, "Process permission management"). Everything else Overhaul does —
// P1 fork propagation, P2 IPC propagation, pty propagation, device checks —
// reads or writes this field.
//
// The descriptor table maps fds to open file descriptions, and read(2) and
// write(2) are operations of the description (Linux's `file_operations`):
// `Kernel::sys_read`/`sys_write` look the description up, borrowed for the
// call, and make one virtual call.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::kern {

using Pid = int;
using Uid = int;

inline constexpr Pid kNoPid = -1;
inline constexpr Uid kRootUid = 0;

struct TaskStruct;

// An open file description (what a file descriptor points at). Concrete
// resources (vfs files, pipe ends, pty ends, sockets) subclass this; the fd
// table owns them via shared_ptr because dup()/fork() share descriptions.
//
// file_write/file_read are write(2)/read(2) on the description. A channel's
// override only forwards to the channel's own write/read/send/receive, which
// are the P2 interposition points overhaul-lint R1 requires to stamp; the
// `file_` names keep R1 checking those, not the forwarders.
class FileDescription {
 public:
  virtual ~FileDescription() = default;
  // Human-readable tag for /proc-style listings and debugging.
  [[nodiscard]] virtual std::string describe() const = 0;

  // Bytes accepted, or an error.
  virtual util::Result<std::size_t> file_write(TaskStruct& /*task*/,
                                               std::string_view /*data*/) {
    return util::Status(util::Code::kNotSupported,
                        "write: unsupported description");
  }
  // Up to max_bytes, or an error.
  virtual util::Result<std::string> file_read(TaskStruct& /*task*/,
                                              std::size_t /*max_bytes*/) {
    return util::Status(util::Code::kNotSupported,
                        "read: unsupported description");
  }
};

// A task's descriptor table: (fd, description) pairs in one vector, sorted
// by fd. Like Linux's fdtable, which fork copies as one array (`dup_fd`), a
// fork copies it in one go. fds come from TaskStruct::next_fd and are never
// reused, so installing one appends and a lookup searches a few contiguous
// entries. It is not indexed by fd number: that array would grow with every
// fd a long-lived task ever opened. clear() keeps the storage, which
// ProcessTable::reap hands back to the slot, so a fork into a recycled slot
// copies into capacity it already has.
class FdTable {
 public:
  using Entry = std::pair<int, std::shared_ptr<FileDescription>>;

  // Binds fd `n` to `desc`, replacing any description it had.
  void insert(int n, std::shared_ptr<FileDescription> desc) {
    const auto it = lower_bound(n);
    if (it != entries_.end() && it->first == n) {
      it->second = std::move(desc);
    } else {
      entries_.emplace(it, n, std::move(desc));
    }
  }

  // The description behind fd `n`, or nullptr when it is not open.
  [[nodiscard]] FileDescription* get(int n) const noexcept {
    const auto it = lower_bound(n);
    return it != entries_.end() && it->first == n ? it->second.get() : nullptr;
  }

  // The description behind fd `n`, shared, to hand it to another task.
  // Throws std::out_of_range when `n` is not open.
  [[nodiscard]] const std::shared_ptr<FileDescription>& at(int n) const;

  // Drops fd `n`; false when it was not open.
  bool erase(int n) {
    const auto it = lower_bound(n);
    if (it == entries_.end() || it->first != n) return false;
    entries_.erase(it);
    return true;
  }

  // Drops every fd and keeps the storage.
  void clear() noexcept { entries_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  // The first entry whose fd is not below `n`.
  [[nodiscard]] std::vector<Entry>::iterator lower_bound(int n) noexcept {
    return std::ranges::lower_bound(entries_, n, {}, &Entry::first);
  }
  [[nodiscard]] std::vector<Entry>::const_iterator lower_bound(
      int n) const noexcept {
    return std::ranges::lower_bound(entries_, n, {}, &Entry::first);
  }

  std::vector<Entry> entries_;
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
  FdTable fds;
  int next_fd = 3;  // 0/1/2 notionally reserved for stdio

  int install_fd(std::shared_ptr<FileDescription> desc) {
    const int fd = next_fd++;
    fds.insert(fd, std::move(desc));
    return fd;
  }

  // The description behind fd `n` (nullptr when not open), borrowed for one
  // syscall instead of copying the shared_ptr and its two atomic refcount
  // operations. The borrow is safe because only close_fd, exit and reap drop
  // a table entry, and no description operation calls any of them: the
  // description outlives the call, even if an insert moves the entries.
  [[nodiscard]] FileDescription* fd(int n) const { return fds.get(n); }

  bool close_fd(int n) { return fds.erase(n); }
};

}  // namespace overhaul::kern

// ProcessTable: fork/clone/execve/exit over TaskStructs.
//
// Implements policy P1 from the paper (§III-D): "whenever a process X
// creates a new process Y, all interaction notifications N_{X,t} recorded in
// the permission monitor must be duplicated as N_{Y,t}". On Linux this falls
// out of `fork` copying the parent's task_struct (§IV-B); we reproduce
// exactly that: the child starts as a field-for-field copy, including the
// interaction timestamp.
//
// Storage is a generation-checked slab, not a map: TaskStructs live in
// 16-slot chunks (stable addresses for the pointers the kernel, X server,
// and IPC layers hold across calls), pid → slot translation is two dependent
// loads through a paged map (a directory of 1024-pid pages, each allocated
// on first bind and released when its last pid is reaped, one emptied page
// kept as a spare; ~2.7 ns per lookup_live against ~2.1 ns for a dense
// pid-indexed vector), and reaped slots go on a free-list for O(1) reuse.
// So the table's memory follows the tasks it holds, live or tombstoned, not
// the processes it has ever spawned. Every mediation decision starts with a
// pid lookup, so this table is the hottest data structure in the repo — see
// DESIGN.md §10.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kern/task.h"
#include "util/annotations.h"
#include "util/status.h"

namespace overhaul::kern {

// A stable, generation-checked reference to a slab slot. Cheaper than a pid
// lookup (no pid→slot translation) and safe across pid reuse: after the slot
// is reaped and recycled, the stored generation no longer matches and the
// handle resolves to nullptr. Value type; invalid by default.
struct TaskHandle {
  std::int32_t slot = -1;
  std::uint32_t generation = 0;

  [[nodiscard]] constexpr bool valid() const noexcept { return slot >= 0; }
  constexpr bool operator==(const TaskHandle&) const = default;
};

class ProcessTable {
 public:
  // Upper bound on pid values (like /proc/sys/kernel/pid_max): allocation
  // wraps past it and scans for a free pid. Tests lower it to force reuse.
  static constexpr Pid kDefaultPidMax = 4'194'304;

  explicit ProcessTable(Pid pid_max = kDefaultPidMax);

  // pid 1, uid 0, exe /sbin/init. Created by the constructor.
  [[nodiscard]] TaskStruct& init_task() { return *lookup(1); }

  // fork(2): duplicate `parent` into a new process. The returned child has
  // copied uid/comm/exe/interaction_ts and *shares* open file descriptions
  // (fd table copied, descriptions refcounted) — like the real call.
  util::Result<Pid> fork(Pid parent);

  // clone(2) with CLONE_THREAD: new task in the caller's thread group.
  util::Result<Pid> spawn_thread(Pid leader);

  // execve(2): replace the image. The task_struct persists, so — as in the
  // paper — the interaction timestamp survives exec. This is what makes
  // launcher → exec(screenshot-tool) work (Fig. 3).
  util::Status execve(Pid pid, std::string exe_path, std::string comm);

  // exit(2): mark dead, detach tracees, drop fds (the fd table keeps its
  // storage). The table keeps a tombstone so late permission queries against
  // the pid fail cleanly.
  util::Status exit(Pid pid);

  // wait(2)-style reclamation: release a tombstone's slot back to the
  // free-list and retire its pid. Bumps the slot generation, so any
  // outstanding TaskHandle to the old task misses from then on. Fails with
  // kBusy while the task is alive.
  util::Status reap(Pid pid);

  [[nodiscard]] TaskStruct* lookup(Pid pid);
  [[nodiscard]] const TaskStruct* lookup(Pid pid) const;

  // Lookup that treats dead tasks as missing.
  [[nodiscard]] TaskStruct* lookup_live(Pid pid);

  // --- stable handles -------------------------------------------------------
  // Long-lived holders (netlink channels, caches) resolve the pid once and
  // then dereference the handle: one bounds check + one generation compare,
  // no pid translation. An invalid handle is returned for unknown pids.
  [[nodiscard]] TaskHandle handle_of(Pid pid) const;
  [[nodiscard]] TaskStruct* get(TaskHandle handle);
  [[nodiscard]] const TaskStruct* get(TaskHandle handle) const;
  [[nodiscard]] TaskStruct* get_live(TaskHandle handle);

  // --- ptrace linkage -------------------------------------------------------
  // The only approved writers of TaskStruct::traced_by/tracees: keep the
  // forward pointer and the per-tracer reverse index consistent so exit()
  // detaches in O(|tracees|).
  void attach_trace(Pid tracer, Pid tracee);
  void detach_trace(Pid tracer, Pid tracee);

  // True if `descendant` is a (transitive) child of `ancestor`.
  [[nodiscard]] bool is_descendant(Pid ancestor, Pid descendant) const;

  void for_each_live(const std::function<void(TaskStruct&)>& fn);

  [[nodiscard]] std::size_t live_count() const noexcept { return live_count_; }
  [[nodiscard]] Pid last_pid() const noexcept { return last_pid_; }
  [[nodiscard]] Pid pid_max() const noexcept { return pid_max_; }

  // --- capacity accounting ---------------------------------------------------
  // Slots ever allocated (high-water mark; reaped slots still count — their
  // chunk stays pinned).
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }
  // Bytes held by the table itself: slab chunks, pid pages (the spare
  // included) and the page directory. The fleet harness's RSS proxy.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  // 16 slots per chunk: a seat with a handful of live tasks pins ~4 KiB.
  // Chunks are never freed or moved, which is what keeps TaskStruct* stable.
  static constexpr std::size_t kChunkShift = 4;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  // 1024 pids per page of the pid → slot map (4 KiB).
  static constexpr std::size_t kPidPageShift = 10;
  static constexpr std::size_t kPidPageSize = std::size_t{1} << kPidPageShift;
  static constexpr std::size_t kPidPageMask = kPidPageSize - 1;

  struct Slot {
    std::uint32_t generation = 0;
    bool in_use = false;
    TaskStruct task;
  };
  using Chunk = std::array<Slot, kChunkSize>;

  // Slot index per pid, -1 where unbound.
  using PidPage = std::array<std::int32_t, kPidPageSize>;
  struct PidPageEntry {
    std::unique_ptr<PidPage> page;  // null while no pid in range is bound
    std::uint32_t bound = 0;        // pids in the page bound to a slot
  };

  [[nodiscard]] Slot& slot_at(std::int32_t index) noexcept {
    return (*chunks_[static_cast<std::size_t>(index) >> kChunkShift])
        [static_cast<std::size_t>(index) & kChunkMask];
  }
  [[nodiscard]] const Slot& slot_at(std::int32_t index) const noexcept {
    return (*chunks_[static_cast<std::size_t>(index) >> kChunkShift])
        [static_cast<std::size_t>(index) & kChunkMask];
  }

  // pid → slot index, or -1. A negative pid converts to an index past any
  // directory, so one compare covers both ends.
  [[nodiscard]] std::int32_t slot_index(Pid pid) const noexcept {
    const std::size_t page = static_cast<std::size_t>(pid) >> kPidPageShift;
    if (page >= pid_pages_.size()) return -1;
    const PidPage* entries = pid_pages_[page].page.get();
    return entries == nullptr
               ? -1
               : (*entries)[static_cast<std::size_t>(pid) & kPidPageMask];
  }

  util::Result<Pid> allocate_pid();
  // Allocates a slot (free-list first), binds it to `pid`, and returns the
  // fresh zero-state task with pid/tgid set.
  TaskStruct& allocate_task(Pid pid);
  // Point `pid`'s map entry at `index` (allocating or reusing its page), or
  // back at -1 (releasing the page once no pid in it is bound).
  void bind_pid(Pid pid, std::int32_t index);
  void unbind_pid(Pid pid);

  // Shard-local by construction: in the parallel sim every shard owns one
  // table; nothing crosses shard boundaries (DESIGN.md §13).
  OVERHAUL_SHARD_LOCAL std::vector<std::unique_ptr<Chunk>> chunks_;
  OVERHAUL_SHARD_LOCAL std::vector<std::int32_t> free_slots_;
  // Page directory, grown lazily to the highest pid page seen (at most
  // pid_max / 1024 entries), plus one emptied page kept for reuse. Without
  // the spare, a job that binds and reaps a few pids in an otherwise empty
  // page allocates and refills a page every time.
  OVERHAUL_SHARD_LOCAL std::vector<PidPageEntry> pid_pages_;
  OVERHAUL_SHARD_LOCAL std::unique_ptr<PidPage> spare_page_;
  // Slots ever allocated (high-water mark).
  OVERHAUL_SHARD_LOCAL std::size_t slot_count_ = 0;

  OVERHAUL_SHARD_LOCAL Pid pid_max_;
  OVERHAUL_SHARD_LOCAL Pid next_pid_ = 1;
  OVERHAUL_SHARD_LOCAL Pid last_pid_ = 0;
  OVERHAUL_SHARD_LOCAL std::size_t live_count_ = 0;
};

}  // namespace overhaul::kern

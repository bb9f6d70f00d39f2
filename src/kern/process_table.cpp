#include "kern/process_table.h"

#include <algorithm>
#include <utility>

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

ProcessTable::ProcessTable(Pid pid_max) : pid_max_(pid_max) {
  TaskStruct& init = allocate_task(1);
  next_pid_ = 2;
  last_pid_ = 1;
  init.ppid = 0;
  init.tgid = init.pid;
  init.uid = kRootUid;
  init.comm = "init";
  init.exe_path = "/sbin/init";
}

Result<Pid> ProcessTable::allocate_pid() {
  // Sequential allocation with wraparound at pid_max (like the kernel's
  // pid bitmap): a pid stays retired while its tombstone exists; reap()
  // returns it to circulation.
  for (Pid scanned = 0; scanned < pid_max_; ++scanned) {
    const Pid candidate = next_pid_;
    next_pid_ = candidate >= pid_max_ ? 1 : candidate + 1;
    if (slot_index(candidate) < 0) {
      last_pid_ = candidate;
      return candidate;
    }
  }
  return Status(Code::kResourceExhausted, "fork: pid space exhausted");
}

TaskStruct& ProcessTable::allocate_task(Pid pid) {
  std::int32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ == chunks_.size() * kChunkSize)
      chunks_.push_back(std::make_unique<Chunk>());
    index = static_cast<std::int32_t>(slot_count_++);
  }
  Slot& slot = slot_at(index);
  slot.in_use = true;
  bind_pid(pid, index);
  slot.task.pid = pid;
  ++live_count_;
  return slot.task;
}

void ProcessTable::bind_pid(Pid pid, std::int32_t index) {
  const std::size_t page = static_cast<std::size_t>(pid) >> kPidPageShift;
  if (page >= pid_pages_.size()) pid_pages_.resize(page + 1);
  PidPageEntry& entry = pid_pages_[page];
  if (entry.page == nullptr) {
    if (spare_page_ != nullptr) {
      entry.page = std::move(spare_page_);  // already all -1
    } else {
      entry.page = std::make_unique_for_overwrite<PidPage>();
      entry.page->fill(-1);
    }
  }
  (*entry.page)[static_cast<std::size_t>(pid) & kPidPageMask] = index;
  ++entry.bound;
}

void ProcessTable::unbind_pid(Pid pid) {
  PidPageEntry& entry =
      pid_pages_[static_cast<std::size_t>(pid) >> kPidPageShift];
  (*entry.page)[static_cast<std::size_t>(pid) & kPidPageMask] = -1;
  if (--entry.bound > 0) return;
  if (spare_page_ == nullptr) {
    spare_page_ = std::move(entry.page);
  } else {
    entry.page.reset();
  }
}

Result<Pid> ProcessTable::fork(Pid parent_pid) {
  TaskStruct* parent = lookup_live(parent_pid);
  if (parent == nullptr)
    return Status(Code::kNotFound, "fork: no such process");

  auto pid_or = allocate_pid();
  if (!pid_or.is_ok()) return pid_or.status();
  const Pid pid = pid_or.value();

  // Slab chunks never move, so `parent` stays valid across the allocation.
  TaskStruct& child = allocate_task(pid);
  child.ppid = parent_pid;
  child.tgid = pid;  // new thread group
  child.uid = parent->uid;
  child.comm = parent->comm;
  child.exe_path = parent->exe_path;
  // P1: the child inherits the parent's interaction timestamp by virtue of
  // the task_struct copy — no extra Overhaul code needed (paper §IV-B).
  child.interaction_ts = parent->interaction_ts;
  child.acg_grants = parent->acg_grants;
  // fd table copied as one array, descriptions shared (refcount), like
  // dup_fd. A recycled slot copies into the storage reap left it.
  child.fds = parent->fds;
  child.next_fd = parent->next_fd;
  return pid;
}

Result<Pid> ProcessTable::spawn_thread(Pid leader_pid) {
  TaskStruct* leader = lookup_live(leader_pid);
  if (leader == nullptr)
    return Status(Code::kNotFound, "clone: no such process");

  auto pid_or = allocate_pid();
  if (!pid_or.is_ok()) return pid_or.status();
  const Pid pid = pid_or.value();

  TaskStruct& thread = allocate_task(pid);
  thread.ppid = leader->ppid;
  thread.tgid = leader->tgid;  // same thread group
  thread.uid = leader->uid;
  thread.comm = leader->comm;
  thread.exe_path = leader->exe_path;
  // Threads get their own task_struct on Linux, so the same P1 copy applies
  // (paper: "This property also extends to the threads of a process").
  thread.interaction_ts = leader->interaction_ts;
  thread.acg_grants = leader->acg_grants;
  thread.fds = leader->fds;
  thread.next_fd = leader->next_fd;
  return pid;
}

Status ProcessTable::execve(Pid pid, std::string exe_path, std::string comm) {
  TaskStruct* task = lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "execve: no such process");
  task->exe_path = std::move(exe_path);
  task->comm = std::move(comm);
  // interaction_ts deliberately untouched: exec replaces the image, not the
  // task_struct.
  return Status::ok();
}

Status ProcessTable::exit(Pid pid) {
  TaskStruct* task = lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "exit: no such process");
  task->alive = false;
  task->fds.clear();
  // Detach from our tracer's reverse index, then detach anything this task
  // was tracing — O(|tracees|) via the reverse index, not a table scan.
  if (task->traced_by != kNoPid) {
    if (TaskStruct* tracer = lookup(task->traced_by); tracer != nullptr)
      std::erase(tracer->tracees, pid);
    task->traced_by = kNoPid;
  }
  for (const Pid tracee_pid : task->tracees) {
    if (TaskStruct* tracee = lookup(tracee_pid);
        tracee != nullptr && tracee->traced_by == pid)
      tracee->traced_by = kNoPid;
  }
  task->tracees.clear();
  --live_count_;
  return Status::ok();
}

Status ProcessTable::reap(Pid pid) {
  const std::int32_t index = slot_index(pid);
  if (index < 0) return Status(Code::kNotFound, "reap: no such process");
  Slot& slot = slot_at(index);
  if (slot.task.alive)
    return Status(Code::kBusy, "reap: process still running");
  unbind_pid(pid);
  // Invalidate outstanding handles before the slot can be recycled.
  ++slot.generation;
  slot.in_use = false;
  // Release the tombstone's strings, but hand the slot back the descriptor
  // table's storage (exit emptied it) for the next task forked into it.
  FdTable fds = std::move(slot.task.fds);
  slot.task = TaskStruct{};
  slot.task.fds = std::move(fds);
  free_slots_.push_back(index);
  return Status::ok();
}

TaskStruct* ProcessTable::lookup(Pid pid) {
  const std::int32_t index = slot_index(pid);
  return index < 0 ? nullptr : &slot_at(index).task;
}

const TaskStruct* ProcessTable::lookup(Pid pid) const {
  const std::int32_t index = slot_index(pid);
  return index < 0 ? nullptr : &slot_at(index).task;
}

TaskStruct* ProcessTable::lookup_live(Pid pid) {
  TaskStruct* t = lookup(pid);
  return (t != nullptr && t->alive) ? t : nullptr;
}

TaskHandle ProcessTable::handle_of(Pid pid) const {
  const std::int32_t index = slot_index(pid);
  if (index < 0) return {};
  return {index, slot_at(index).generation};
}

TaskStruct* ProcessTable::get(TaskHandle handle) {
  if (handle.slot < 0 ||
      static_cast<std::size_t>(handle.slot) >= slot_count_)
    return nullptr;
  Slot& slot = slot_at(handle.slot);
  if (!slot.in_use || slot.generation != handle.generation) return nullptr;
  return &slot.task;
}

const TaskStruct* ProcessTable::get(TaskHandle handle) const {
  if (handle.slot < 0 ||
      static_cast<std::size_t>(handle.slot) >= slot_count_)
    return nullptr;
  const Slot& slot = slot_at(handle.slot);
  if (!slot.in_use || slot.generation != handle.generation) return nullptr;
  return &slot.task;
}

TaskStruct* ProcessTable::get_live(TaskHandle handle) {
  TaskStruct* t = get(handle);
  return (t != nullptr && t->alive) ? t : nullptr;
}

void ProcessTable::attach_trace(Pid tracer_pid, Pid tracee_pid) {
  TaskStruct* tracer = lookup_live(tracer_pid);
  TaskStruct* tracee = lookup_live(tracee_pid);
  if (tracer == nullptr || tracee == nullptr) return;
  tracee->traced_by = tracer_pid;
  tracer->tracees.push_back(tracee_pid);
}

void ProcessTable::detach_trace(Pid tracer_pid, Pid tracee_pid) {
  if (TaskStruct* tracee = lookup(tracee_pid);
      tracee != nullptr && tracee->traced_by == tracer_pid)
    tracee->traced_by = kNoPid;
  if (TaskStruct* tracer = lookup(tracer_pid); tracer != nullptr)
    std::erase(tracer->tracees, tracee_pid);
}

bool ProcessTable::is_descendant(Pid ancestor, Pid descendant) const {
  const TaskStruct* cur = lookup(descendant);
  while (cur != nullptr && cur->pid != 1 && cur->ppid > 0) {
    if (cur->ppid == ancestor) return true;
    cur = lookup(cur->ppid);
  }
  return false;
}

std::size_t ProcessTable::bytes() const noexcept {
  std::size_t pages = spare_page_ != nullptr ? 1 : 0;
  for (const PidPageEntry& entry : pid_pages_)
    if (entry.page != nullptr) ++pages;
  return chunks_.size() * sizeof(Chunk) + pages * sizeof(PidPage) +
         pid_pages_.capacity() * sizeof(PidPageEntry);
}

void ProcessTable::for_each_live(const std::function<void(TaskStruct&)>& fn) {
  for (std::size_t index = 0; index < slot_count_; ++index) {
    Slot& slot = slot_at(static_cast<std::int32_t>(index));
    if (slot.in_use && slot.task.alive) fn(slot.task);
  }
}

}  // namespace overhaul::kern

// Signals: kill(2)-style delivery with classic UNIX permission semantics.
//
// Signals carry no payload, so the paper's propagation policies do not
// apply to them — but the substrate needs them for process-lifecycle
// realism (launchers reaping children, the user stopping a runaway
// recorder, spyware trying to kill the display manager) and for pinning
// down one security property: a stopped process keeps its interaction
// record, but time keeps moving — a SIGSTOP/SIGCONT dance cannot stretch
// the δ window.
#pragma once

#include <cstdint>
#include <utility>

#include "kern/process_table.h"
#include "util/status.h"

namespace overhaul::kern {

enum class Signal : std::uint8_t {
  kTerm = 15,
  kKill = 9,
  kStop = 19,
  kCont = 18,
  kUsr1 = 10,
};

class SignalManager {
 public:
  explicit SignalManager(ProcessTable& processes) : processes_(processes) {}

  // kill(2): sender must be root or share the target's uid. SIGKILL/SIGTERM
  // terminate (no handlers in this model); SIGSTOP/SIGCONT toggle the
  // stopped state; SIGUSR1 is delivered to a per-task pending count.
  util::Status send(Pid sender, Pid target, Signal sig);

  // Signal state lives in the target's task_struct, so it dies with the
  // task: queries about a dead or unknown pid answer "not stopped, nothing
  // pending", and a recycled pid starts clean.
  [[nodiscard]] bool is_stopped(Pid pid) const {
    const TaskStruct* task = processes_.lookup_live(pid);
    return task != nullptr && task->stopped;
  }
  [[nodiscard]] std::uint32_t pending_usr1(Pid pid) const {
    const TaskStruct* task = processes_.lookup_live(pid);
    return task == nullptr ? 0 : task->pending_usr1;
  }
  // Consume pending SIGUSR1s (what a handler loop would do).
  std::uint32_t take_usr1(Pid pid) {
    TaskStruct* task = processes_.lookup_live(pid);
    return task == nullptr ? 0 : std::exchange(task->pending_usr1, 0u);
  }

 private:
  ProcessTable& processes_;
};

}  // namespace overhaul::kern

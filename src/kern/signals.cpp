#include "kern/signals.h"

namespace overhaul::kern {

using util::Code;
using util::Status;

Status SignalManager::send(Pid sender_pid, Pid target_pid, Signal sig) {
  TaskStruct* sender = processes_.lookup_live(sender_pid);
  TaskStruct* target = processes_.lookup_live(target_pid);
  if (sender == nullptr || target == nullptr)
    return Status(Code::kNotFound, "kill: no such process");

  // Classic UNIX rule: root signals anyone; users signal their own uid.
  if (sender->uid != kRootUid && sender->uid != target->uid)
    return Status(Code::kPermissionDenied, "kill: uid mismatch");
  // init is unkillable from userspace.
  if (target_pid == 1 && sender->uid != kRootUid)
    return Status(Code::kPermissionDenied, "kill: cannot signal init");

  switch (sig) {
    case Signal::kKill:
    case Signal::kTerm:
      return processes_.exit(target_pid);
    case Signal::kStop:
      target->stopped = true;
      return Status::ok();
    case Signal::kCont:
      target->stopped = false;
      return Status::ok();
    case Signal::kUsr1:
      ++target->pending_usr1;
      return Status::ok();
  }
  return Status(Code::kInvalidArgument, "kill: unknown signal");
}

}  // namespace overhaul::kern

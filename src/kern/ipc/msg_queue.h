// Message queues: POSIX (named, priority-ordered) and SysV (typed).
//
// Both are on the paper's supported list (§IV-B: "all of POSIX shared memory
// and message queues, UNIX SysV shared memory and message queues, ..."). The
// send/receive functions carry the P2 interposition, so interaction
// timestamps flow with messages regardless of queue discipline.
//
// A POSIX queue keeps its messages in one priority-ordered vector that
// reuses its storage, so a warm queue moves a message without a heap
// allocation beyond the payload.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kern/ipc/ipc_object.h"
#include "util/status.h"

namespace overhaul::kern {

// ---------------------------------------------------------------------------
// POSIX message queue (mq_open / mq_send / mq_receive): messages ordered by
// priority (higher first), FIFO within a priority.
class PosixMq : public IpcObject {
 public:
  PosixMq(const IpcPolicy& policy, std::size_t max_messages)
      : IpcObject(policy, IpcFamily::kMsgQueue), max_messages_(max_messages) {}

  util::Status send(TaskStruct& sender, std::string payload,
                    std::uint32_t priority);
  // Receives the highest-priority message. kWouldBlock if empty.
  util::Result<std::string> receive(TaskStruct& receiver);

  [[nodiscard]] std::size_t depth() const noexcept { return queue_.size(); }

 private:
  struct Msg {
    std::uint32_t priority;
    std::string payload;
  };
  std::size_t max_messages_;
  // Ascending priority and, within a priority, newest first: receive pops
  // the back, the oldest message of the highest priority.
  std::vector<Msg> queue_;
};

// mq namespace ("/name" → queue).
class PosixMqNamespace {
 public:
  explicit PosixMqNamespace(const IpcPolicy& policy) : policy_(policy) {}

  util::Result<std::shared_ptr<PosixMq>> open(const std::string& name,
                                              bool create,
                                              std::size_t max_messages = 10);
  util::Status unlink(const std::string& name);
  [[nodiscard]] std::size_t count() const noexcept { return queues_.size(); }

 private:
  const IpcPolicy& policy_;
  std::map<std::string, std::shared_ptr<PosixMq>> queues_;
};

// ---------------------------------------------------------------------------
// SysV message queue (msgget / msgsnd / msgrcv): typed messages.
// msgrcv type selector follows the syscall contract:
//   type == 0 : first message in the queue
//   type  > 0 : first message with exactly that type
//   type  < 0 : lowest-typed message with type <= |type|
class SysvMq : public IpcObject {
 public:
  SysvMq(const IpcPolicy& policy, std::size_t max_bytes)
      : IpcObject(policy, IpcFamily::kMsgQueue), max_bytes_(max_bytes) {}

  util::Status send(TaskStruct& sender, long type, std::string payload);
  util::Result<std::pair<long, std::string>> receive(TaskStruct& receiver,
                                                     long type_selector);

  [[nodiscard]] std::size_t depth() const noexcept { return messages_.size(); }

 private:
  struct Msg {
    long type;
    std::string payload;
  };
  std::size_t max_bytes_;
  std::size_t used_bytes_ = 0;
  std::deque<Msg> messages_;
};

}  // namespace overhaul::kern

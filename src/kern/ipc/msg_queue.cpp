#include "kern/ipc/msg_queue.h"

#include <algorithm>

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

// --- PosixMq ----------------------------------------------------------------

Status PosixMq::send(TaskStruct& sender, std::string payload,
                     std::uint32_t priority) {
  if (queue_.size() >= max_messages_)
    return Status(Code::kWouldBlock, "mq full");
  stamp_on_send(sender);
  // Ahead of every queued message of the same or a higher priority.
  const auto at = std::lower_bound(
      queue_.begin(), queue_.end(), priority,
      [](const Msg& m, std::uint32_t p) { return m.priority < p; });
  queue_.insert(at, Msg{priority, std::move(payload)});
  return Status::ok();
}

Result<std::string> PosixMq::receive(TaskStruct& receiver) {
  if (queue_.empty()) return Status(Code::kWouldBlock, "mq empty");
  propagate_on_recv(receiver);
  std::string payload = std::move(queue_.back().payload);
  queue_.pop_back();
  return payload;
}

Result<std::shared_ptr<PosixMq>> PosixMqNamespace::open(
    const std::string& name, bool create, std::size_t max_messages) {
  const auto it = queues_.find(name);
  if (it != queues_.end()) return it->second;
  if (!create) return Status(Code::kNotFound, "mq_open: " + name);
  if (name.empty() || name.front() != '/')
    return Status(Code::kInvalidArgument, "mq name must start with '/'");
  auto q = std::make_shared<PosixMq>(policy_, max_messages);
  queues_.emplace(name, q);
  return q;
}

Status PosixMqNamespace::unlink(const std::string& name) {
  return queues_.erase(name) > 0 ? Status::ok()
                                 : Status(Code::kNotFound, name);
}

// --- SysvMq -----------------------------------------------------------------

Status SysvMq::send(TaskStruct& sender, long type, std::string payload) {
  if (type <= 0) return Status(Code::kInvalidArgument, "msgsnd: type must be > 0");
  if (used_bytes_ + payload.size() > max_bytes_)
    return Status(Code::kWouldBlock, "msgq full");
  stamp_on_send(sender);
  used_bytes_ += payload.size();
  messages_.push_back(Msg{type, std::move(payload)});
  return Status::ok();
}

Result<std::pair<long, std::string>> SysvMq::receive(TaskStruct& receiver,
                                                     long type_selector) {
  auto it = messages_.end();
  if (type_selector == 0) {
    if (!messages_.empty()) it = messages_.begin();
  } else if (type_selector > 0) {
    it = std::find_if(messages_.begin(), messages_.end(),
                      [&](const Msg& m) { return m.type == type_selector; });
  } else {
    // Lowest type <= |selector|.
    const long bound = -type_selector;
    long best_type = 0;
    for (auto cur = messages_.begin(); cur != messages_.end(); ++cur) {
      if (cur->type <= bound && (it == messages_.end() || cur->type < best_type)) {
        it = cur;
        best_type = cur->type;
      }
    }
  }
  if (it == messages_.end())
    return Status(Code::kWouldBlock, "msgrcv: no matching message");

  propagate_on_recv(receiver);
  auto out = std::make_pair(it->type, std::move(it->payload));
  used_bytes_ -= out.second.size();
  messages_.erase(it);
  return out;
}

}  // namespace overhaul::kern

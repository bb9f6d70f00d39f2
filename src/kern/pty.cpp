#include "kern/pty.h"

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

Status PtyPair::write(TaskStruct& writer, End end, std::string data) {
  // The pty driver's Overhaul hook: every write embeds the writer's
  // timestamp into the device structure.
  stamp_on_send(writer);
  (end == End::kMaster ? to_slave_ : to_master_).push(std::move(data));
  return Status::ok();
}

Result<std::string> PtyPair::read(TaskStruct& reader, End end,
                                  std::size_t max_bytes) {
  auto& queue = end == End::kMaster ? to_master_ : to_slave_;
  if (queue.empty()) return Status(Code::kWouldBlock, "pty: no data");
  // The read hook: adopt the device's timestamp if fresher.
  propagate_on_recv(reader);
  return queue.take(max_bytes);
}

std::shared_ptr<PtyPair> PtyDriver::open_pair() {
  const int index = next_index_++;
  auto pair = std::make_shared<PtyPair>(policy_, index);
  pairs_.emplace(index, pair);
  return pair;
}

std::shared_ptr<PtyPair> PtyDriver::find(int index) const {
  const auto it = pairs_.find(index);
  return it == pairs_.end() ? nullptr : it->second;
}

}  // namespace overhaul::kern

#include "kern/ipc/pipe.h"

#include <algorithm>

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

Result<std::size_t> Pipe::write(TaskStruct& writer, std::string_view data) {
  if (readers_ == 0)
    return Status(Code::kBrokenChannel, "pipe: no readers (EPIPE)");
  const std::size_t room = capacity_ - buffered();
  if (room == 0) return Status(Code::kWouldBlock, "pipe full");

  // Overhaul send interposition: embed the writer's interaction timestamp in
  // the channel before the data becomes visible to readers.
  stamp_on_send(writer);

  // Drop the read prefix once it is at least as long as the unread bytes
  // (all of it when the pipe has drained). Each unread byte then moves at
  // most once per as many bytes read, the buffer stays within
  // 2 × capacity_, and its storage within twice that.
  if (head_ != 0 && head_ >= buffered()) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  const std::size_t n = std::min(room, data.size());
  buffer_.append(data.data(), n);
  return n;
}

Result<std::string> Pipe::read(TaskStruct& reader, std::size_t max_bytes) {
  if (buffered() == 0) {
    if (writers_ == 0) return std::string{};  // EOF
    return Status(Code::kWouldBlock, "pipe empty");
  }

  // Overhaul receive interposition: adopt the channel's timestamp.
  propagate_on_recv(reader);

  const std::size_t n = std::min(max_bytes, buffered());
  std::string out(buffer_, head_, n);
  head_ += n;
  return out;
}

}  // namespace overhaul::kern

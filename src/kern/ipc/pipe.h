// Anonymous pipes: bounded byte stream with P2 timestamp propagation.
//
// write(2) is the send interposition point, read(2) the receive point
// (§IV-B: "inserting checks inside the corresponding send and receive
// functions for each IPC facility").
//
// The bytes live in one contiguous buffer with a read offset: a write
// appends with one copy, a read copies one range out. The storage is kept
// across messages, and compacted, so a warm pipe or FIFO moves a message
// without touching the heap beyond the string read() returns.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "kern/ipc/ipc_object.h"
#include "kern/task.h"
#include "util/status.h"

namespace overhaul::kern {

class Pipe : public IpcObject {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;  // Linux default

  // FIFOs reuse Pipe with their own family tag so per-family metrics stay
  // distinguishable even though the mechanics are identical.
  explicit Pipe(const IpcPolicy& policy, std::size_t capacity = kDefaultCapacity,
                IpcFamily family = IpcFamily::kPipe)
      : IpcObject(policy, family), capacity_(capacity) {}

  // Write up to data.size() bytes; partial writes occur when near capacity.
  // kWouldBlock when full; kBrokenChannel when no reader remains (SIGPIPE
  // analogue).
  util::Result<std::size_t> write(TaskStruct& writer, std::string_view data);

  // Read up to max_bytes. Empty string = EOF (all writers closed).
  // kWouldBlock when empty but writers remain.
  util::Result<std::string> read(TaskStruct& reader, std::size_t max_bytes);

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - head_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // Storage held, read or not: at most 4 × capacity() (see write()).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return buffer_.capacity();
  }

  // End-of-stream bookkeeping (pipe ends are duplicated by fork).
  void add_writer() noexcept { ++writers_; }
  void add_reader() noexcept { ++readers_; }
  void close_writer() noexcept { if (writers_ > 0) --writers_; }
  void close_reader() noexcept { if (readers_ > 0) --readers_; }
  [[nodiscard]] int writers() const noexcept { return writers_; }
  [[nodiscard]] int readers() const noexcept { return readers_; }

 private:
  std::size_t capacity_;
  // Unread bytes are buffer_[head_, size()); write() drops the read prefix.
  std::string buffer_;
  std::size_t head_ = 0;
  // Counts are maintained by PipeEnd RAII handles; a bare Pipe has no ends.
  int writers_ = 0;
  int readers_ = 0;
};

// Descriptor payloads for the two ends.
class PipeEnd final : public FileDescription {
 public:
  enum class Dir : std::uint8_t { kRead, kWrite };
  PipeEnd(std::shared_ptr<Pipe> pipe, Dir dir)
      : pipe_(std::move(pipe)), dir_(dir) {
    if (dir_ == Dir::kRead) pipe_->add_reader(); else pipe_->add_writer();
  }
  ~PipeEnd() override {
    if (dir_ == Dir::kRead) pipe_->close_reader(); else pipe_->close_writer();
  }
  PipeEnd(const PipeEnd&) = delete;
  PipeEnd& operator=(const PipeEnd&) = delete;

  [[nodiscard]] std::string describe() const override {
    return dir_ == Dir::kRead ? "pipe:r" : "pipe:w";
  }
  // Pipe::write / Pipe::read through the end open in that direction.
  util::Result<std::size_t> file_write(TaskStruct& task,
                                       std::string_view data) override {
    if (dir_ != Dir::kWrite)
      return util::Status(util::Code::kInvalidArgument,
                          "fd not open for writing");
    return pipe_->write(task, data);
  }
  util::Result<std::string> file_read(TaskStruct& task,
                                      std::size_t max_bytes) override {
    if (dir_ != Dir::kRead)
      return util::Status(util::Code::kInvalidArgument,
                          "fd not open for reading");
    return pipe_->read(task, max_bytes);
  }
  [[nodiscard]] const std::shared_ptr<Pipe>& pipe() const { return pipe_; }
  [[nodiscard]] Dir dir() const noexcept { return dir_; }

 private:
  std::shared_ptr<Pipe> pipe_;
  Dir dir_;
};

}  // namespace overhaul::kern

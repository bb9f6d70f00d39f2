// Pseudo-terminal driver with interaction propagation (§IV-B "CLI
// interactions").
//
// A terminal emulator (an X client that receives authentic key events)
// talks to a shell through a pty pair. The paper propagates interaction
// timestamps through the pty device driver: "Whenever a process writes to a
// terminal endpoint, that process embeds its timestamp into the kernel data
// structure representing the pseudo terminal device. Subsequently, when
// another process reads from the corresponding terminal endpoint, that
// process copies the embedded timestamp to its task_struct". This is what
// lets `xterm → bash → arecord` open the microphone right after the user
// pressed Enter.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "kern/ipc/ipc_object.h"
#include "kern/ipc/message_fifo.h"
#include "util/status.h"

namespace overhaul::kern {

// A master/slave pty pair. The master side is held by the terminal
// emulator; the slave side is the controlling terminal of the shell and its
// descendants. Each direction is a byte queue; the embedded timestamp is a
// single per-device field, exactly like the paper's kernel structure.
class PtyPair : public IpcObject {
 public:
  enum class End : std::uint8_t { kMaster, kSlave };

  explicit PtyPair(const IpcPolicy& policy, int index)
      : IpcObject(policy, IpcFamily::kPty), index_(index) {}

  [[nodiscard]] int index() const noexcept { return index_; }
  [[nodiscard]] std::string slave_path() const {
    return "/dev/pts/" + std::to_string(index_);
  }

  // Write at one end; data becomes readable at the other.
  util::Status write(TaskStruct& writer, End end, std::string data);
  // Read the next pending write at one end, or up to max_bytes of it: an
  // unread tail stays first in line. kWouldBlock when none.
  util::Result<std::string> read(TaskStruct& reader, End end,
                                 std::size_t max_bytes = std::string::npos);

  [[nodiscard]] std::size_t pending(End end) const {
    return end == End::kMaster ? to_master_.size() : to_slave_.size();
  }

 private:
  int index_;
  MessageFifo to_slave_;   // master writes land here
  MessageFifo to_master_;  // slave writes land here
};

// Descriptor payload for an open pty end (master via posix_openpt, slave
// via open(2) on /dev/pts/N).
class PtyEndDescription final : public FileDescription {
 public:
  PtyEndDescription(std::shared_ptr<PtyPair> pair, PtyPair::End end)
      : pair_(std::move(pair)), end_(end) {}
  [[nodiscard]] std::string describe() const override {
    return (end_ == PtyPair::End::kMaster ? "ptmx:" : "pts:") +
           std::to_string(pair_->index());
  }
  // PtyPair::write / read at this end.
  util::Result<std::size_t> file_write(TaskStruct& task,
                                       std::string_view data) override {
    if (auto s = pair_->write(task, end_, std::string(data)); !s.is_ok())
      return s;
    return data.size();
  }
  util::Result<std::string> file_read(TaskStruct& task,
                                      std::size_t max_bytes) override {
    return pair_->read(task, end_, max_bytes);
  }
  [[nodiscard]] const std::shared_ptr<PtyPair>& pair() const { return pair_; }
  [[nodiscard]] PtyPair::End end() const noexcept { return end_; }

 private:
  std::shared_ptr<PtyPair> pair_;
  PtyPair::End end_;
};

class PtyDriver {
 public:
  explicit PtyDriver(const IpcPolicy& policy) : policy_(policy) {}

  // posix_openpt analogue.
  std::shared_ptr<PtyPair> open_pair();
  [[nodiscard]] std::shared_ptr<PtyPair> find(int index) const;
  [[nodiscard]] std::size_t count() const noexcept { return pairs_.size(); }

 private:
  const IpcPolicy& policy_;
  std::map<int, std::shared_ptr<PtyPair>> pairs_;
  int next_index_ = 0;
};

}  // namespace overhaul::kern

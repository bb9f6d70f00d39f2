// MessageFifo: the message queue behind each direction of a UNIX socket
// pair, a pty and a cross-shard socket pair.
//
// Slots are kept across messages: the queue resets to its first slot when it
// drains and compacts when the consumed prefix outweighs the queued
// messages, so a warm channel queues and dequeues without touching the heap
// (a std::deque allocates and frees a block every 16 messages).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace overhaul::kern {

class MessageFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return slots_.size() - head_;
  }

  void push(std::string message) {
    if (head_ != 0 && head_ >= size()) {
      slots_.erase(slots_.begin(),
                   slots_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    slots_.push_back(std::move(message));
  }

  // Up to max_bytes of the head message; the queue must not be empty. A
  // longer message keeps its unread tail at the head, so the next take
  // returns it; otherwise the whole message is dequeued.
  std::string take(std::size_t max_bytes) {
    std::string& head = slots_[head_];
    if (head.size() > max_bytes) {
      std::string out = head.substr(0, max_bytes);
      head.erase(0, max_bytes);
      return out;
    }
    std::string out = std::move(head);
    if (++head_ == slots_.size()) {
      slots_.clear();
      head_ = 0;
    }
    return out;
  }

 private:
  std::vector<std::string> slots_;
  std::size_t head_ = 0;  // first queued slot; those before it are consumed
};

}  // namespace overhaul::kern

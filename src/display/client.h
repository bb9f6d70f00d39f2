// Client: a connected display client, its kernel-verified pid and its
// bounded protocol event queue.
//
// §IV-A: interaction notifications "are labeled with the PID of the process
// that received the event and a timestamp. The PID serves as an unforgeable
// binding between a window belonging to a process and events, as the mapping
// between X client sockets and the PID is retrieved from the kernel." The
// pid recorded here is that kernel-provided socket-peer binding
// (SO_PEERCRED on a real server) — clients cannot choose it, which is what
// makes interaction notifications and permission queries attributable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "display/surface.h"
#include "kern/task.h"

namespace overhaul::display {

class Client {
 public:
  Client(ClientId id, kern::Pid pid) : id_(id), pid_(pid) {}
  virtual ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

 private:
  ClientId id_;
  kern::Pid pid_;
};

// A client with a FIFO of one protocol's events (x11::XEvent, wl::WlEvent).
template <typename Event>
class QueuedClient : public Client {
 public:
  using Client::Client;

  // A client that never pumps its queue cannot grow server memory without
  // bound (the X server disconnects such clients; we drop + count instead
  // so scenarios stay analyzable).
  static constexpr std::size_t kMaxQueuedEvents = 4096;

  void enqueue(Event event) {
    if (queue_.size() >= kMaxQueuedEvents) {
      ++dropped_events_;
      return;
    }
    queue_.push_back(std::move(event));
  }

  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_events_;
  }

  [[nodiscard]] bool has_events() const noexcept { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  // Pop the next event (FIFO). Caller must check has_events().
  Event next_event() {
    Event ev = std::move(queue_.front());
    queue_.pop_front();
    return ev;
  }

  void drain() { queue_.clear(); }

 private:
  std::deque<Event> queue_;
  std::uint64_t dropped_events_ = 0;
};

}  // namespace overhaul::display

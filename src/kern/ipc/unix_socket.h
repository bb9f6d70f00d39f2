// UNIX domain sockets: connected stream pairs with per-direction queues.
//
// Higher-level desktop IPC (D-Bus in particular) runs over UNIX domain
// sockets, which is why the paper calls out that "Higher-level IPC
// mechanisms that are built on these OS primitives (e.g., D-Bus) are also
// automatically covered" (§IV-B). Each endpoint's send stamps the channel in
// its own direction; the peer's receive adopts it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "kern/ipc/ipc_object.h"
#include "kern/ipc/message_fifo.h"
#include "kern/task.h"
#include "util/status.h"

namespace overhaul::kern {

class UnixSocketPair;

// One endpoint of a connected pair. Send/recv on an endpoint operate on the
// direction-specific half-channel so the two directions carry independent
// timestamps (a quiet server must not inherit freshness from a chatty
// client before it actually reads).
class UnixSocketEndpoint {
 public:
  UnixSocketEndpoint(std::shared_ptr<UnixSocketPair> pair, int side)
      : pair_(std::move(pair)), side_(side) {}

  util::Status send(TaskStruct& sender, std::string payload);
  // The next message whole (D-Bus relies on the boundaries), or up to
  // max_bytes of it, as read(2) does: an unread tail stays queued first.
  util::Result<std::string> receive(
      TaskStruct& receiver, std::size_t max_bytes = std::string::npos);

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] bool peer_closed() const;
  void close();

 private:
  std::shared_ptr<UnixSocketPair> pair_;
  int side_;  // 0 or 1
};

class UnixSocketPair : public std::enable_shared_from_this<UnixSocketPair> {
 public:
  explicit UnixSocketPair(const IpcPolicy& policy)
      : dir_{IpcObject{policy, IpcFamily::kSocket},
             IpcObject{policy, IpcFamily::kSocket}} {}

  // The two connected endpoints.
  static std::pair<UnixSocketEndpoint, UnixSocketEndpoint> make(
      const IpcPolicy& policy);

 private:
  friend class UnixSocketEndpoint;
  IpcObject dir_[2];      // dir_[i] stamps messages flowing from side i
  MessageFifo inbox_[2];  // inbox_[i] holds messages destined for side i
  bool open_[2] = {true, true};
};

// Descriptor payload for a connected socket endpoint (socketpair(2) or an
// accepted connection), so sockets flow through the fd table like pipes.
class SocketDescription final : public FileDescription {
 public:
  explicit SocketDescription(UnixSocketEndpoint endpoint)
      : endpoint_(std::move(endpoint)) {}
  ~SocketDescription() override { endpoint_.close(); }
  SocketDescription(const SocketDescription&) = delete;
  SocketDescription& operator=(const SocketDescription&) = delete;

  [[nodiscard]] std::string describe() const override { return "socket"; }
  // UnixSocketEndpoint::send / receive.
  util::Result<std::size_t> file_write(TaskStruct& task,
                                       std::string_view data) override {
    if (auto s = endpoint_.send(task, std::string(data)); !s.is_ok()) return s;
    return data.size();
  }
  util::Result<std::string> file_read(TaskStruct& task,
                                      std::size_t max_bytes) override {
    return endpoint_.receive(task, max_bytes);
  }
  [[nodiscard]] UnixSocketEndpoint& endpoint() { return endpoint_; }

 private:
  UnixSocketEndpoint endpoint_;
};

// Path-bound listeners: bind(path) + connect(path) yield a fresh pair, like
// SOCK_STREAM accept().
class UnixSocketNamespace {
 public:
  explicit UnixSocketNamespace(const IpcPolicy& policy) : policy_(policy) {}

  util::Status bind(const std::string& path);
  // Returns {client endpoint, server endpoint}.
  util::Result<std::pair<UnixSocketEndpoint, UnixSocketEndpoint>> connect(
      const std::string& path);
  util::Status unbind(const std::string& path);

  [[nodiscard]] bool bound(const std::string& path) const {
    return listeners_.count(path) > 0;
  }

 private:
  const IpcPolicy& policy_;
  std::map<std::string, bool> listeners_;
};

}  // namespace overhaul::kern

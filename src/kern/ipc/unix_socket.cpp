#include "kern/ipc/unix_socket.h"

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

Status UnixSocketEndpoint::send(TaskStruct& sender, std::string payload) {
  const int peer = 1 - side_;
  if (!pair_->open_[peer])
    return Status(Code::kBrokenChannel, "unix socket: peer closed");
  pair_->dir_[side_].stamp_on_send(sender);
  pair_->inbox_[peer].push(std::move(payload));
  return Status::ok();
}

Result<std::string> UnixSocketEndpoint::receive(TaskStruct& receiver,
                                                std::size_t max_bytes) {
  auto& inbox = pair_->inbox_[side_];
  if (inbox.empty()) {
    if (!pair_->open_[1 - side_]) return std::string{};  // orderly EOF
    return Status(Code::kWouldBlock, "unix socket: empty");
  }
  // Adopt the timestamp of the *incoming* direction (stamped by the peer).
  pair_->dir_[1 - side_].propagate_on_recv(receiver);
  return inbox.take(max_bytes);
}

std::size_t UnixSocketEndpoint::pending() const {
  return pair_->inbox_[side_].size();
}

bool UnixSocketEndpoint::peer_closed() const {
  return !pair_->open_[1 - side_];
}

void UnixSocketEndpoint::close() { pair_->open_[side_] = false; }

std::pair<UnixSocketEndpoint, UnixSocketEndpoint> UnixSocketPair::make(
    const IpcPolicy& policy) {
  auto pair = std::make_shared<UnixSocketPair>(policy);
  return {UnixSocketEndpoint(pair, 0), UnixSocketEndpoint(pair, 1)};
}

Status UnixSocketNamespace::bind(const std::string& path) {
  if (listeners_.count(path) > 0)
    return Status(Code::kExists, "bind: address in use: " + path);
  listeners_.emplace(path, true);
  return Status::ok();
}

Result<std::pair<UnixSocketEndpoint, UnixSocketEndpoint>>
UnixSocketNamespace::connect(const std::string& path) {
  if (listeners_.count(path) == 0)
    return Status(Code::kNotFound, "connect: no listener at " + path);
  return UnixSocketPair::make(policy_);
}

Status UnixSocketNamespace::unbind(const std::string& path) {
  return listeners_.erase(path) > 0 ? Status::ok()
                                    : Status(Code::kNotFound, path);
}

}  // namespace overhaul::kern

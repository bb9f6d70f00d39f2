#include "apps/dbus.h"

namespace overhaul::apps {

using kern::Pid;
using util::Code;
using util::Result;
using util::Status;

namespace {
constexpr char kUnitSep = '\x1f';
}

// --- DBusConnection -----------------------------------------------------------

Status DBusConnection::request_name(const std::string& name) {
  if (name.empty() || name.find(kUnitSep) != std::string::npos)
    return Status(Code::kInvalidArgument, "bad bus name");
  if (daemon_.names_.count(name) > 0)
    return Status(Code::kExists, "name taken: " + name);
  daemon_.names_[name] = id_;
  return Status::ok();
}

Status DBusConnection::call(const std::string& destination,
                            const std::string& member,
                            const std::string& payload) {
  kern::TaskStruct* task =
      daemon_.sys_.kernel().processes().lookup_live(pid_);
  if (task == nullptr) return Status(Code::kNotFound, "caller task gone");
  DBusMessage msg;
  msg.destination = destination;
  msg.member = member;
  msg.payload = payload;
  msg.sender.assign(1, ':').append(std::to_string(id_));
  // A real socket send: the caller's interaction timestamp is embedded in
  // the channel by the kernel hook.
  return endpoint_.send(*task, DBusDaemon::encode(msg));
}

std::optional<DBusMessage> DBusConnection::next_message() {
  kern::TaskStruct* task =
      daemon_.sys_.kernel().processes().lookup_live(pid_);
  if (task == nullptr) return std::nullopt;
  auto wire = endpoint_.receive(*task);  // adopts the daemon-stamped ts
  if (!wire.is_ok() || wire.value().empty()) return std::nullopt;
  return DBusDaemon::decode(wire.value());
}

// --- DBusDaemon ------------------------------------------------------------------

Result<std::unique_ptr<DBusDaemon>> DBusDaemon::start(
    core::OverhaulSystem& sys) {
  auto pid = sys.launch_daemon("/usr/bin/dbus-daemon", "dbus-daemon");
  if (!pid.is_ok()) return pid.status();
  if (auto s = sys.kernel().unix_sockets().bind(kSocketPath); !s.is_ok())
    return s;
  return std::unique_ptr<DBusDaemon>(new DBusDaemon(sys, pid.value()));
}

Result<std::unique_ptr<DBusConnection>> DBusDaemon::connect(Pid client) {
  if (sys_.kernel().processes().lookup_live(client) == nullptr)
    return Status(Code::kNotFound, "connect: no such process");
  auto pair = sys_.kernel().unix_sockets().connect(kSocketPath);
  if (!pair.is_ok()) return pair.status();
  auto [client_ep, daemon_ep] = std::move(pair).value();
  const int id = next_id_++;
  daemon_side_.emplace(id, std::move(daemon_ep));
  connections_.emplace(id, client);
  return std::unique_ptr<DBusConnection>(
      new DBusConnection(*this, id, client, std::move(client_ep)));
}

std::size_t DBusDaemon::pump() {
  kern::TaskStruct* daemon_task =
      sys_.kernel().processes().lookup_live(pid_);
  if (daemon_task == nullptr) return 0;

  std::size_t routed = 0;
  for (auto& [id, endpoint] : daemon_side_) {
    (void)id;
    for (;;) {
      auto wire = endpoint.receive(*daemon_task);  // daemon adopts sender ts
      if (!wire.is_ok() || wire.value().empty()) break;
      auto msg = decode(wire.value());
      if (!msg.has_value()) continue;

      const auto owner = names_.find(msg->destination);
      if (owner == names_.end()) {
        ++stats_.dropped_no_owner;
        continue;
      }
      const auto dest = daemon_side_.find(owner->second);
      if (dest == daemon_side_.end()) {
        ++stats_.dropped_no_owner;
        continue;
      }
      // Forward: a real socket send from the daemon, stamping the outbound
      // channel with the daemon's (just-adopted) timestamp.
      if (dest->second.send(*daemon_task, encode(*msg)).is_ok()) {
        ++routed;
        ++stats_.routed;
      }
    }
  }
  return routed;
}

std::optional<int> DBusDaemon::owner_of(const std::string& name) const {
  const auto it = names_.find(name);
  if (it == names_.end()) return std::nullopt;
  return it->second;
}

std::string DBusDaemon::encode(const DBusMessage& msg) {
  std::string wire;
  wire.reserve(msg.destination.size() + msg.member.size() +
               msg.payload.size() + msg.sender.size() + 3);
  wire += msg.destination;
  wire += kUnitSep;
  wire += msg.member;
  wire += kUnitSep;
  wire += msg.sender;
  wire += kUnitSep;
  wire += msg.payload;
  return wire;
}

std::optional<DBusMessage> DBusDaemon::decode(const std::string& wire) {
  DBusMessage msg;
  const auto a = wire.find(kUnitSep);
  if (a == std::string::npos) return std::nullopt;
  const auto b = wire.find(kUnitSep, a + 1);
  if (b == std::string::npos) return std::nullopt;
  const auto c = wire.find(kUnitSep, b + 1);
  if (c == std::string::npos) return std::nullopt;
  msg.destination = wire.substr(0, a);
  msg.member = wire.substr(a + 1, b - a - 1);
  msg.sender = wire.substr(b + 1, c - b - 1);
  msg.payload = wire.substr(c + 1);
  return msg;
}

}  // namespace overhaul::apps

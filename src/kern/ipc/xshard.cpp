#include "kern/ipc/xshard.h"

namespace overhaul::kern {

void XShardSocketPair::send(int side, const TaskStruct& sender,
                            std::string payload) {
  const int peer = 1 - side;
  // Stamp with the *sending* shard's policy and epoch: freshness enters the
  // channel in the fleet domain before the payload becomes visible.
  dir_[side].stamp_on_send(*ends_[side].policy, sender, ends_[side].epoch);
  inbox_[peer].push(std::move(payload));
}

OVERHAUL_LANE_SAFE
sim::Timestamp XShardSocketPair::capture_send_stamp(
    int side, const TaskStruct& sender) const {
  const End& end = ends_[side];
  // Mirrors stamp_on_send's gate exactly: no propagation means no stamp and
  // no count — but the payload still travels (deliver_deferred merges
  // never() as a no-op).
  if (!end.policy->propagate) return sim::Timestamp::never();
  if (obs::Counter* c =
          end.policy->family_counters(IpcFamily::kXShard).send_stamps;
      c != nullptr)
    c->add();
  return XShardStamp::to_fleet(sender.interaction_ts, end.epoch);
}

OVERHAUL_COORDINATOR_ONLY
void XShardSocketPair::deliver_deferred(int side, sim::Timestamp fleet_stamp,
                                        std::string payload) {
  dir_[side].merge_fleet(fleet_stamp);
  inbox_[1 - side].push(std::move(payload));
}

std::optional<std::string> XShardSocketPair::receive(int side,
                                                     TaskStruct& receiver) {
  auto& inbox = inbox_[side];
  if (inbox.empty()) return std::nullopt;
  // Adopt from the *incoming* direction (stamped by the peer shard's
  // sender), translated into the receiving shard's clock domain.
  dir_[1 - side].propagate_on_recv(*ends_[side].policy, receiver,
                                   ends_[side].epoch);
  return inbox.take(std::string::npos);
}

}  // namespace overhaul::kern

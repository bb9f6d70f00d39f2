// Cross-shard socket pair: P2 stamp propagation between kernel shards.
//
// In the multi-seat fleet (src/fleet/, DESIGN.md §14) every shard is a full
// per-seat kernel with its own clock domain: shard k's sim::Clock starts at
// zero when the fleet boots it at fleet time E_k (its *epoch*). A socket
// pair whose two ends live in different shards therefore cannot embed a
// shard-local interaction timestamp — the same instant has a different
// numeric value on each side. This channel keeps its embedded stamp in the
// *fleet* clock domain and translates at the interposition points:
//
//   send at shard a:  fleet_stamp = max(fleet_stamp, local_ts + E_a)
//   recv at shard b:  receiver.adopt_interaction(fleet_stamp - E_b)
//
// Translation preserves the paper's P2/δ semantics exactly: "X interacted
// within δ of now" is a statement about elapsed time, and elapsed time is
// epoch-invariant. The property test (tests/fleet/xshard_p2_test.cpp) holds
// this to bit-identical decisions against a single-kernel oracle.
//
// Edge: a stamp minted before the receiving shard's epoch would translate
// to a negative local timestamp, colliding with Timestamp::never()'s
// encoding (ns < 0). to_local() saturates such stamps to never() — the
// conservative direction (no freshness adopted, so no spurious grant).
#pragma once

#include <optional>
#include <string>

#include "kern/ipc/ipc_object.h"
#include "kern/ipc/message_fifo.h"
#include "kern/task.h"
#include "sim/clock.h"
#include "util/annotations.h"

namespace overhaul::kern {

// One direction's stamp cell. Unlike IpcObject, the policy and the clock
// epoch are per-call parameters: the two ends of a cross-shard channel
// belong to different kernels, so each side gates on (and counts into) its
// own shard's IpcPolicy under IpcFamily::kXShard.
class XShardStamp {
 public:
  // Shard-local interaction timestamp → fleet domain. never() is a domain
  // constant ("no interaction ever"), not an instant: it maps to itself.
  [[nodiscard]] static sim::Timestamp to_fleet(sim::Timestamp local,
                                               sim::Duration epoch) noexcept {
    if (local.is_never()) return sim::Timestamp::never();
    return sim::Timestamp{local.ns + epoch.ns};
  }

  // Fleet-domain timestamp → shard-local, saturating pre-epoch instants to
  // never(): a timestamp before the shard booted has no local encoding, and
  // treating it as "expired" is the conservative (deny-side) choice.
  [[nodiscard]] static sim::Timestamp to_local(sim::Timestamp fleet,
                                               sim::Duration epoch) noexcept {
    if (fleet.is_never()) return sim::Timestamp::never();
    const std::int64_t local_ns = fleet.ns - epoch.ns;
    if (local_ns < 0) return sim::Timestamp::never();
    return sim::Timestamp{local_ns};
  }

  // P2 step 2 at a shard boundary: embed the sender's timestamp (translated
  // into the fleet domain) unless the channel already holds a fresher one.
  void stamp_on_send(const IpcPolicy& policy, const TaskStruct& sender,
                     sim::Duration sender_epoch) noexcept {
    if (!policy.propagate) return;
    const sim::Timestamp fleet = to_fleet(sender.interaction_ts, sender_epoch);
    if (fleet > fleet_stamp_) fleet_stamp_ = fleet;
    if (obs::Counter* c =
            policy.family_counters(IpcFamily::kXShard).send_stamps;
        c != nullptr)
      c->add();
  }

  // P2 step 3 at a shard boundary: adopt the channel stamp translated into
  // the receiver's clock domain (adopt_interaction only moves forward).
  void propagate_on_recv(const IpcPolicy& policy, TaskStruct& receiver,
                         sim::Duration receiver_epoch) noexcept {
    if (!policy.propagate) return;
    receiver.adopt_interaction(to_local(fleet_stamp_, receiver_epoch));
    if (obs::Counter* c =
            policy.family_counters(IpcFamily::kXShard).recv_adoptions;
        c != nullptr)
      c->add();
  }

  // Barrier-drain half of stamp_on_send, for the parallel fleet engine
  // (DESIGN.md §15): merge a fleet-domain stamp that was captured (and
  // counted) at send time inside the sending shard's lane. Max-of-monotone,
  // so the coordinator's drain order cannot matter.
  void merge_fleet(sim::Timestamp fleet) noexcept {
    if (fleet > fleet_stamp_) fleet_stamp_ = fleet;
  }

  [[nodiscard]] sim::Timestamp fleet_stamp() const noexcept {
    return fleet_stamp_;
  }

  // P2 step 1: channel (re)creation embeds an expired timestamp.
  void reset_stamp() noexcept { fleet_stamp_ = sim::Timestamp::never(); }

 private:
  // Written on both shards' send paths — the one genuinely cross-shard cell
  // in the fleet. Mutations are confined to the interposition points.
  OVERHAUL_SHARED(stamp_on_send|reset_stamp|merge_fleet)
  sim::Timestamp fleet_stamp_ = sim::Timestamp::never();
};

// A connected pair whose two ends live in different shards. Mirrors
// UnixSocketPair (per-direction stamps + queues, WouldBlock on empty) so the
// single-kernel oracle in tests/fleet/xshard_p2_test.cpp can model it with a
// plain socket pair. Side 0/1 ends are bound to their shards' IpcPolicy and
// epoch at construction; tasks are passed per call, never cached (R7).
class XShardSocketPair {
 public:
  // One end's shard binding. The policy reference must outlive the pair
  // (both belong to the owning kernels, which the fleet harness keeps alive
  // for as long as its links).
  struct End {
    const IpcPolicy* policy = nullptr;
    sim::Duration epoch{0};
  };

  XShardSocketPair(End side0, End side1) : ends_{side0, side1} {}

  // P2-interposed send from `side`'s shard into the peer's inbox.
  void send(int side, const TaskStruct& sender, std::string payload);

  // P2-interposed receive at `side`'s shard; nullopt when the inbox is
  // empty (no message, no adoption — exactly UnixSocketEndpoint::receive's
  // WouldBlock case).
  std::optional<std::string> receive(int side, TaskStruct& receiver);

  // Deferred-delivery halves for the fleet's parallel engine (DESIGN.md
  // §15). During a parallel quantum the two ends step concurrently, so a
  // send must not touch the shared direction cell or the peer inbox:
  // capture_send_stamp() reads only sender-shard state (translating the
  // sender's freshness into the fleet domain and counting the send into the
  // sender's own registry), and the coordinator replays the result through
  // deliver_deferred() at the quantum barrier. Equivalent to send() being
  // split across the quantum boundary; receive() is unchanged because the
  // inbox it reads is then only mutated at barriers.
  [[nodiscard]] sim::Timestamp capture_send_stamp(
      int side, const TaskStruct& sender) const;
  void deliver_deferred(int side, sim::Timestamp fleet_stamp,
                        std::string payload);

  [[nodiscard]] std::size_t pending(int side) const {
    return inbox_[side].size();
  }
  [[nodiscard]] const XShardStamp& stamp_from(int side) const {
    return dir_[side];
  }
  [[nodiscard]] const End& end(int side) const { return ends_[side]; }

 private:
  // Immutable after construction: a pair never migrates between shards.
  const End ends_[2];
  // dir_[i] stamps messages flowing *from* side i; inbox_[i] holds messages
  // destined *for* side i. Both are touched from two shards, through the
  // send/receive interposition points only.
  OVERHAUL_SHARED(send|reset_stamp|deliver_deferred) XShardStamp dir_[2];
  OVERHAUL_SHARED(send|receive|deliver_deferred)
  MessageFifo inbox_[2];
};

}  // namespace overhaul::kern

// SelectionManager: the ICCCM copy & paste protocol with Overhaul's
// modifications (§IV-A "Clipboard", Fig. 6).
//
// X11 has no central clipboard; copy & paste is an inter-client protocol.
// Overhaul modifies the bolded steps of Fig. 6:
//  (2) SetSelection      → permission query (copy) before acquiring ownership
//  (6) ConvertSelection  → permission query (paste) before forwarding
// and additionally polices the convention-only protocol against bypasses:
//  * SendEvent-forged SelectionRequest events are blocked (a client could
//    otherwise pump the selection owner for data directly);
//  * SelectionNotify via SendEvent is only forwarded when it matches an
//    in-flight transfer from the real owner to the real requestor's window,
//    once per transfer;
//  * property events and reads for in-flight clipboard data are restricted
//    to the paste target ("such events are only delivered to the paste
//    target while the clipboard data is in flight").
// Selections, properties and targets are atoms of the server's registry,
// as in X11; status messages, audit details and trace spans spell them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"
#include "x11/client.h"
#include "x11/wire.h"

namespace overhaul::x11 {

class XServer;

struct SelectionOwner {
  ClientId client = 0;
  WindowId window = kNoWindow;
};

// An in-flight paste: from ConvertSelection until the requestor deletes the
// property (Fig. 6 steps 6–13). Large transfers switch to the ICCCM INCR
// protocol: the owner announces "INCR", then streams chunks through the
// same property, each consumed-and-deleted by the requestor, terminated by
// an empty chunk.
struct Transfer {
  enum class State : std::uint8_t {
    kRequested,   // SelectionRequest delivered to owner
    kDataReady,   // owner stored the data in the property
    kNotified,    // SelectionNotify delivered to requestor
    kIncrActive,  // INCR announced; chunks streaming
  };
  Atom selection = kAtomNone;
  ClientId owner = 0;
  ClientId requestor = 0;
  WindowId requestor_window = kNoWindow;
  Atom property = kAtomNone;
  Atom target = AtomRegistry::kString;  // ICCCM conversion target
  State state = State::kRequested;
  bool incr_final_sent = false;  // the empty terminating chunk is in place
};

class SelectionManager {
 public:
  explicit SelectionManager(XServer& server) : server_(server) {}

  // --- Fig. 6 protocol steps ------------------------------------------------
  // Step 2: SetSelection. Under Overhaul, requires a copy permission grant.
  util::Status set_selection_owner(ClientId client, Atom selection,
                                   WindowId owner_window);
  // Steps 3–4: confirm ownership.
  [[nodiscard]] std::optional<SelectionOwner> selection_owner(
      Atom selection) const;

  // Step 6: ConvertSelection. Under Overhaul, requires a paste permission
  // grant; on grant the server issues SelectionRequest to the owner (7).
  // `target` is the ICCCM conversion target: STRING/UTF8_STRING for data,
  // or TARGETS to ask the owner which formats it supports.
  util::Status convert_selection(ClientId requestor, Atom selection,
                                 WindowId requestor_window, Atom property,
                                 Atom target = AtomRegistry::kString);

  // Step 8: ChangeProperty. Owners store transfer data on the requestor's
  // window; clients may also use properties on their own windows freely.
  util::Status change_property(ClientId client, WindowId window, Atom property,
                               std::string data);

  // Steps 11–12: GetProperty. In-flight clipboard properties are readable
  // only by the paste target under Overhaul. With `del` set (X11's delete
  // flag) it also performs step 13, as DeleteProperty would, and moves the
  // value out instead of copying it.
  util::Result<std::string> get_property(ClientId client, WindowId window,
                                         Atom property, bool del = false);

  // Step 13: DeleteProperty — completes the transfer (or, during INCR,
  // acknowledges the current chunk).
  util::Status delete_property(ClientId client, WindowId window,
                               Atom property);

  // --- INCR protocol (large transfers) ---------------------------------------
  // Transfers above this size must use INCR (the X server's maximum-request
  // size stands in for the paper's X11 reality).
  static constexpr std::size_t kIncrThreshold = 256 * 1024;

  // Owner: announce an incremental transfer instead of step 8's one-shot
  // ChangeProperty. Writes the INCR marker into the property.
  util::Status begin_incr(ClientId owner, WindowId requestor_window,
                          Atom property, std::size_t total_size);
  // Owner: stream the next chunk (property must be free, i.e. the requestor
  // consumed the previous one). An empty chunk terminates the transfer.
  util::Status send_incr_chunk(ClientId owner, WindowId requestor_window,
                               Atom property, std::string chunk);

  // PropertyNotify subscription (the snooping vector) — convenience wrapper
  // over XServer::select_input(kPropertyChangeMask).
  void subscribe_property_events(ClientId client, WindowId window);

  // Client teardown: selections owned by the client are cleared (as the X
  // server does when a selection owner's window is destroyed) and its
  // in-flight transfers dropped.
  void on_client_disconnected(ClientId client);

  // --- SendEvent policing (called by XServer::send_event) --------------------
  // A SelectionRequest from a client is always out-of-protocol (only the
  // server issues them). A SelectionNotify sent to `destination` is
  // in-protocol iff it matches an in-flight transfer of that selection to
  // that window, from its true owner, whose data is ready (or whose INCR
  // stream is active); admitting it advances kDataReady to kNotified.
  [[nodiscard]] bool admit_send_event(ClientId sender, WindowId destination,
                                      const XEvent& event);

  [[nodiscard]] const std::vector<Transfer>& transfers() const noexcept {
    return transfers_;
  }

  struct Stats {
    std::uint64_t copies_granted = 0;
    std::uint64_t copies_denied = 0;
    std::uint64_t pastes_granted = 0;
    std::uint64_t pastes_denied = 0;
    std::uint64_t snoops_blocked = 0;  // property reads/events denied mid-flight
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  [[nodiscard]] Transfer* transfer_on_property(WindowId window, Atom property);
  void deliver_property_notify(WindowId window, Atom property);
  // GetProperty and DeleteProperty: one lookup and one set of checks.
  util::Result<std::string> access_property(ClientId client, WindowId window,
                                            Atom property, bool read, bool del);

  XServer& server_;
  std::map<Atom, SelectionOwner> owners_;
  std::map<std::pair<WindowId, Atom>, std::string> properties_;
  std::vector<Transfer> transfers_;
  Stats stats_;
};

}  // namespace overhaul::x11

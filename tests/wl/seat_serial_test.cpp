// wl_seat serial provenance (§IV-A translated): serials are minted only on
// the hardware-event delivery path; validation rejects forged, replayed, and
// stolen serials; and no serial — genuine or not — can mint an interaction
// record by itself.
#include "wl/seat.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "wl/compositor.h"

namespace overhaul::wl {
namespace {

core::OverhaulConfig wayland_config() {
  core::OverhaulConfig cfg;
  cfg.display_backend = core::DisplayBackendKind::kWayland;
  return cfg;
}

// --- WlSeat in isolation -----------------------------------------------------

TEST(WlSeat, MintsConsecutiveSerialsAndLooksThemUp) {
  sim::Clock clock;
  WlSeat seat(clock);
  const Serial a = seat.mint_serial(1, 10);
  const Serial b = seat.mint_serial(2, 20);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(seat.last_minted(), b);
  const auto* rec = seat.lookup(a);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->client, 1u);
  EXPECT_EQ(rec->surface, 10u);
}

TEST(WlSeat, SerialIsValidOnlyForTheDeliveredClient) {
  sim::Clock clock;
  WlSeat seat(clock);
  const Serial s = seat.mint_serial(1, 10);
  EXPECT_TRUE(seat.serial_valid(1, s));
  // A stolen serial — minted for client 1, presented by client 2.
  EXPECT_FALSE(seat.serial_valid(2, s));
}

TEST(WlSeat, NeverMintedSerialsAreInvalid) {
  sim::Clock clock;
  WlSeat seat(clock);
  EXPECT_FALSE(seat.serial_valid(1, kInvalidSerial));
  EXPECT_FALSE(seat.serial_valid(1, 9999));
  EXPECT_EQ(seat.lookup(9999), nullptr);
  const Serial s = seat.mint_serial(1, 10);
  // A replay of a future serial the seat has not minted yet.
  EXPECT_FALSE(seat.serial_valid(1, s + 1));
}

TEST(WlSeat, HistoryIsABoundedRing) {
  sim::Clock clock;
  WlSeat seat(clock);
  const Serial first = seat.mint_serial(1, 10);
  for (std::size_t i = 0; i < WlSeat::kSerialHistory; ++i)
    (void)seat.mint_serial(1, 10);
  // `first` has aged out; the newest serial is still valid.
  EXPECT_EQ(seat.lookup(first), nullptr);
  EXPECT_FALSE(seat.serial_valid(1, first));
  EXPECT_TRUE(seat.serial_valid(1, seat.last_minted()));
}

// --- provenance through the compositor --------------------------------------

class WlSerialProvenanceTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_{wayland_config()};
  WlCompositor& comp_ = sys_.compositor();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      display::Rect r = {0, 0, 200, 200},
                                      bool settle = true) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r, settle).value();
  }

  sim::Timestamp interaction_ts(kern::Pid pid) {
    return sys_.kernel().processes().lookup(pid)->interaction_ts;
  }
};

// S2 analogue: a client that never received input presents a forged serial.
// The forgery is counted, no interaction record is minted anywhere, and the
// monitor denies the copy on input correlation.
TEST_F(WlSerialProvenanceTest, ForgedSerialMintsNoInteractionRecord) {
  auto attacker = app("attacker", {300, 300, 50, 50});
  const auto s =
      comp_.data_devices().set_selection(attacker.client, 424242, {"text/plain"});
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_TRUE(interaction_ts(attacker.pid).is_never());
  EXPECT_EQ(comp_.stats().forged_serials, 1u);
  EXPECT_EQ(comp_.input_stats().interaction_notifications, 0u);
  EXPECT_EQ(sys_.obs().metrics.counter_value("wl.input.forged_serials"), 1u);
}

// Replaying another client's genuine serial is still a forgery for the
// presenter — and still mints nothing.
TEST_F(WlSerialProvenanceTest, StolenSerialIsCountedAsForged) {
  auto victim = app("victim");
  auto attacker = app("attacker", {300, 300, 50, 50});
  sys_.input().click(100, 100);  // victim receives input, a serial is minted
  const Serial stolen = comp_.seat().last_minted();
  ASSERT_TRUE(comp_.seat().serial_valid(victim.client, stolen));
  const auto before = interaction_ts(attacker.pid);
  (void)comp_.data_devices().set_selection(attacker.client, stolen,
                                           {"text/plain"});
  EXPECT_EQ(comp_.stats().forged_serials, 1u);
  EXPECT_EQ(interaction_ts(attacker.pid), before);
}

// A genuine serial does not bypass input correlation: the interaction it
// refers to can have expired (δ), and the monitor — not the serial — decides.
TEST_F(WlSerialProvenanceTest, GenuineSerialDoesNotOverrideExpiredDelta) {
  auto a = app("slowpoke");
  sys_.input().click(100, 100);
  WlConnection* c = comp_.connection(a.client);
  ASSERT_NE(c, nullptr);
  const Serial genuine = c->last_input_serial();
  sys_.advance(sim::Duration::seconds(5));  // > δ = 2s
  const auto s =
      comp_.data_devices().set_selection(a.client, genuine, {"text/plain"});
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  // Genuine provenance: not counted as forged — but denied all the same.
  EXPECT_EQ(comp_.stats().forged_serials, 0u);
}

// The pre-threshold attack: a click on a just-mapped surface delivers a
// genuine serial but mints no interaction record, so the serial buys nothing.
TEST_F(WlSerialProvenanceTest, PreThresholdClickSerialBuysNothing) {
  auto a = app("bait", {0, 0, 200, 200}, /*settle=*/false);
  sys_.input().click(100, 100);  // suppressed by the visibility threshold
  WlConnection* c = comp_.connection(a.client);
  ASSERT_NE(c, nullptr);
  const Serial genuine = c->last_input_serial();
  ASSERT_NE(genuine, kInvalidSerial);
  ASSERT_TRUE(interaction_ts(a.pid).is_never());
  const auto s =
      comp_.data_devices().set_selection(a.client, genuine, {"text/plain"});
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_EQ(comp_.stats().forged_serials, 0u);
  EXPECT_TRUE(interaction_ts(a.pid).is_never());
}

}  // namespace
}  // namespace overhaul::wl

// Figure 6: the 13-step ICCCM copy & paste protocol with Overhaul's
// modified steps, exercised step by step (not through the app helpers).
#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;
using x11::Atom;
using x11::EventType;
using x11::XEvent;

constexpr Atom kClipboard = x11::AtomRegistry::kClipboard;
constexpr Atom kPrimary = x11::AtomRegistry::kPrimary;

class Fig6Test : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  x11::XServer& x_ = sys_.xserver();
  core::OverhaulSystem::AppHandle source_;
  core::OverhaulSystem::AppHandle target_;

  void SetUp() override {
    source_ = sys_.launch_gui_app("/usr/bin/source", "source",
                                  display::Rect{0, 0, 200, 200})
                  .value();
    target_ = sys_.launch_gui_app("/usr/bin/target", "target",
                                  display::Rect{400, 0, 200, 200})
                  .value();
  }

  void click(const core::OverhaulSystem::AppHandle& h) {
    (void)x_.raise_surface(h.client, h.window);
    const auto& r = x_.surface(h.window)->rect();
    sys_.input().click(r.x + 5, r.y + 5);
  }

  Atom atom(std::string_view name) { return x_.atoms().intern(name); }
};

TEST_F(Fig6Test, FullProtocolStepByStep) {
  auto& sel = x_.selections();

  // (1) copy initiated by user input via an X input driver.
  click(source_);
  sys_.input().press_copy_chord();
  // (2) SetSelection — modified step: permission query (copy).
  ASSERT_TRUE(
      sel.set_selection_owner(source_.client, kClipboard, source_.window)
          .is_ok());
  // (3)+(4) ownership confirmed.
  ASSERT_TRUE(sel.selection_owner(kClipboard).has_value());
  EXPECT_EQ(sel.selection_owner(kClipboard)->client, source_.client);

  // (5) paste initiated by user input.
  click(target_);
  sys_.input().press_paste_chord();
  // (6) ConvertSelection — modified step: permission query (paste).
  ASSERT_TRUE(sel.convert_selection(target_.client, kClipboard,
                                    target_.window, atom("XSEL_DATA"))
                  .is_ok());

  // (7) the server issued SelectionRequest to the source client (whose
  // queue also still holds its own click/chord input events — skip those).
  x11::XClient* src = x_.client(source_.client);
  XEvent req;
  bool saw_request = false;
  while (src->has_events()) {
    req = src->next_event();
    if (req.type == EventType::kSelectionRequest) {
      saw_request = true;
      break;
    }
  }
  ASSERT_TRUE(saw_request);
  EXPECT_EQ(req.selection, kClipboard);
  EXPECT_EQ(req.requestor, target_.window);

  // (8) source stores the data with ChangeProperty on the requestor window.
  ASSERT_TRUE(sel.change_property(source_.client, req.requestor, req.property,
                                  "the-copied-data")
                  .is_ok());

  // (9) source requests SelectionNotify delivery via SendEvent.
  XEvent notify;
  notify.type = EventType::kSelectionNotify;
  notify.selection = kClipboard;
  notify.property = req.property;
  ASSERT_TRUE(x_.send_event(source_.client, target_.window, notify).is_ok());

  // (10) target receives SelectionNotify.
  x11::XClient* tgt = x_.client(target_.client);
  bool notified = false;
  while (tgt->has_events()) {
    if (tgt->next_event().type == EventType::kSelectionNotify) notified = true;
  }
  EXPECT_TRUE(notified);

  // (11)+(12) GetProperty returns the data.
  const Atom xsel_data = atom("XSEL_DATA");
  auto data = sel.get_property(target_.client, target_.window, xsel_data);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), "the-copied-data");

  // (13) DeleteProperty completes the transfer.
  ASSERT_TRUE(
      sel.delete_property(target_.client, target_.window, xsel_data).is_ok());
  EXPECT_EQ(sel.get_property(target_.client, target_.window, xsel_data).code(),
            Code::kBadAtom);
  EXPECT_TRUE(sel.transfers().empty());
}

TEST_F(Fig6Test, Step2DeniedWithoutStep1) {
  auto s = x_.selections().set_selection_owner(source_.client, kClipboard,
                                               source_.window);
  EXPECT_EQ(s.code(), Code::kBadAccess);  // "bad access error" per §IV-A
}

TEST_F(Fig6Test, Step6DeniedWithoutStep5) {
  click(source_);
  ASSERT_TRUE(x_.selections()
                  .set_selection_owner(source_.client, kClipboard,
                                       source_.window)
                  .is_ok());
  sys_.advance(sim::Duration::seconds(5));
  auto s = x_.selections().convert_selection(target_.client, kClipboard,
                                             target_.window, atom("P"));
  EXPECT_EQ(s.code(), Code::kBadAccess);
}

TEST_F(Fig6Test, SkippingToStep8WithoutTransferBlocked) {
  // A client that tries to write the handoff property with no in-flight
  // transfer is writing on a foreign window: blocked.
  auto s = x_.selections().change_property(source_.client, target_.window,
                                           atom("XSEL_DATA"), "junk");
  EXPECT_EQ(s.code(), Code::kBadAccess);
}

TEST_F(Fig6Test, SelectionOwnershipTransfers) {
  click(source_);
  ASSERT_TRUE(x_.selections()
                  .set_selection_owner(source_.client, kClipboard,
                                       source_.window)
                  .is_ok());
  click(target_);
  sys_.input().press_copy_chord();
  ASSERT_TRUE(x_.selections()
                  .set_selection_owner(target_.client, kClipboard,
                                       target_.window)
                  .is_ok());
  EXPECT_EQ(x_.selections().selection_owner(kClipboard)->client,
            target_.client);
}

TEST_F(Fig6Test, PrimaryAndClipboardIndependent) {
  click(source_);
  ASSERT_TRUE(x_.selections()
                  .set_selection_owner(source_.client, kPrimary,
                                       source_.window)
                  .is_ok());
  EXPECT_FALSE(x_.selections().selection_owner(kClipboard).has_value());
  EXPECT_TRUE(x_.selections().selection_owner(kPrimary).has_value());
}

}  // namespace
}  // namespace overhaul

// ICCCM selection protocol + Overhaul clipboard mediation (§IV-A, Fig. 6).
#include "x11/selection.h"

#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/runtime.h"
#include "core/system.h"

namespace overhaul::x11 {
namespace {

using apps::icccm_copy;
using apps::icccm_paste;

constexpr Atom kClipboard = AtomRegistry::kClipboard;

class SelectionTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  std::unique_ptr<apps::PasswordManagerApp> pm_;
  std::unique_ptr<apps::EditorApp> editor_;

  void SetUp() override {
    pm_ = apps::PasswordManagerApp::launch(sys_).value();
    editor_ = apps::EditorApp::launch(sys_).value();
    pm_->store_password("bank", "hunter2");
  }

  void user_clicks(const apps::GuiApp& app) {
    auto [cx, cy] = app.click_point();
    // Ensure the app is on top so the click lands on it.
    (void)x_.raise_surface(app.client(), app.window());
    sys_.input().click(cx, cy);
  }

  Atom atom(std::string_view name) { return x_.atoms().intern(name); }

  // Steps 1–8 of a paste from the password manager into the editor's
  // property P: the data is in place and the owner has yet to notify.
  void run_paste_to_handoff() {
    user_clicks(*pm_);
    ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
    user_clicks(*editor_);
    ASSERT_TRUE(x_.selections()
                    .convert_selection(editor_->client(), kClipboard,
                                       editor_->window(), atom("P"))
                    .is_ok());
    for (const auto& ev : pm_->pump_events()) {
      if (ev.type == EventType::kSelectionRequest) {
        ASSERT_TRUE(x_.selections()
                        .change_property(pm_->client(), ev.requestor,
                                         ev.property, "hunter2")
                        .is_ok());
      }
    }
  }

  // Step 9's event, as the owner builds it.
  XEvent notify_of_p() {
    XEvent notify;
    notify.type = EventType::kSelectionNotify;
    notify.selection = kClipboard;
    notify.property = atom("P");
    return notify;
  }
};

TEST_F(SelectionTest, CopyWithoutInteractionDenied) {
  auto s = x_.selections().set_selection_owner(pm_->client(), kClipboard,
                                               pm_->window());
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.selections().stats().copies_denied, 1u);
}

TEST_F(SelectionTest, CopyAfterInteractionGranted) {
  user_clicks(*pm_);
  sys_.input().press_copy_chord();
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  auto owner = x_.selections().selection_owner(kClipboard);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->client, pm_->client());
}

TEST_F(SelectionTest, FullPasteFlowDeliversData) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  auto pasted = editor_->paste_from(*pm_);
  ASSERT_TRUE(pasted.is_ok());
  EXPECT_EQ(pasted.value(), "hunter2");
  EXPECT_EQ(editor_->buffer(), "hunter2");
}

TEST_F(SelectionTest, PasteWithoutInteractionDenied) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  // Let the copy interaction expire, then paste with no user input.
  sys_.advance(sim::Duration::seconds(5));
  auto pasted = editor_->paste_from(*pm_);
  EXPECT_EQ(pasted.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.selections().stats().pastes_denied, 1u);
}

TEST_F(SelectionTest, PasteExpiresAfterDelta) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  EXPECT_EQ(editor_->paste_from(*pm_).code(), util::Code::kBadAccess);
}

TEST_F(SelectionTest, ConvertUnownedSelectionFails) {
  user_clicks(*editor_);
  auto s = x_.selections().convert_selection(
      editor_->client(), AtomRegistry::kPrimary, editor_->window(), atom("P"));
  EXPECT_EQ(s.code(), util::Code::kBadAtom);
}

TEST_F(SelectionTest, SelectionOwnerWindowMustBeOwn) {
  user_clicks(*pm_);
  auto s = x_.selections().set_selection_owner(pm_->client(), kClipboard,
                                               editor_->window());
  EXPECT_EQ(s.code(), util::Code::kBadWindow);
}

// Attack: forged SelectionRequest via SendEvent (the §IV-A bypass).
TEST_F(SelectionTest, ForgedSelectionRequestBlocked) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  (void)pm_->pump_events();  // clear the click/chord input events

  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  XEvent forged;
  forged.type = EventType::kSelectionRequest;
  forged.selection = kClipboard;
  forged.property = atom("LOOT");
  forged.requestor = mallory.value().window;
  auto s = x_.send_event(mallory.value().client, pm_->window(), forged);
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.stats().blocked_send_events, 1u);
  // The owner never sees the forged request.
  EXPECT_FALSE(x_.client(pm_->client())->has_events());
}

// Attack: forged SelectionNotify (no in-flight transfer) blocked.
TEST_F(SelectionTest, ForgedSelectionNotifyBlocked) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  XEvent forged;
  forged.type = EventType::kSelectionNotify;
  forged.selection = kClipboard;
  forged.property = atom("FAKE");
  auto s = x_.send_event(mallory.value().client, editor_->window(), forged);
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
}

// The owner's SelectionNotify is policed against the SendEvent destination:
// aimed at a third client's window it is out of protocol.
TEST_F(SelectionTest, NotifyToNonRequestorWindowBlocked) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  run_paste_to_handoff();
  x_.client(mallory.value().client)->drain();

  EXPECT_EQ(
      x_.send_event(pm_->client(), mallory.value().window, notify_of_p())
          .code(),
      util::Code::kBadAccess);
  EXPECT_EQ(x_.stats().blocked_send_events, 1u);
  EXPECT_FALSE(x_.client(mallory.value().client)->has_events());
  // The notify to the requestor's window still goes through.
  EXPECT_TRUE(
      x_.send_event(pm_->client(), editor_->window(), notify_of_p()).is_ok());
}

// Step 9 happens once per transfer: the legitimate notify moves the
// transfer to kNotified, so a second one is out of protocol.
TEST_F(SelectionTest, SecondNotifyForSameTransferBlocked) {
  run_paste_to_handoff();
  ASSERT_TRUE(
      x_.send_event(pm_->client(), editor_->window(), notify_of_p()).is_ok());
  ASSERT_EQ(x_.selections().transfers().size(), 1u);
  EXPECT_EQ(x_.selections().transfers().front().state,
            Transfer::State::kNotified);
  EXPECT_EQ(
      x_.send_event(pm_->client(), editor_->window(), notify_of_p()).code(),
      util::Code::kBadAccess);
  EXPECT_EQ(x_.stats().blocked_send_events, 1u);
}

// A client may paste its own selection: its data handoff writes its own
// window, which readies the transfer as a foreign-window handoff would.
TEST_F(SelectionTest, OwnerPastesItsOwnSelection) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  auto pasted = apps::backend_paste(sys_, *pm_, *pm_, "CLIPBOARD", "hunter2");
  ASSERT_TRUE(pasted.is_ok()) << pasted.status().to_string();
  EXPECT_EQ(pasted.value(), "hunter2");
  EXPECT_TRUE(x_.selections().transfers().empty());

  // Without fresh input the conversion itself is still denied.
  sys_.advance(sim::Duration::seconds(5));
  EXPECT_EQ(x_.selections()
                .convert_selection(pm_->client(), kClipboard, pm_->window(),
                                   atom("P"))
                .code(),
            util::Code::kBadAccess);
}

// GetProperty with the delete flag is steps 11–13 in one request: snoop
// policing first, then the delete's window-owner check; on success the
// property and its transfer are gone.
TEST_F(SelectionTest, GetPropertyWithDeleteCompletesTheTransfer) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  run_paste_to_handoff();
  ASSERT_TRUE(
      x_.send_event(pm_->client(), editor_->window(), notify_of_p()).is_ok());

  auto& sel = x_.selections();
  const auto snoops = sel.stats().snoops_blocked;
  EXPECT_EQ(sel.get_property(mallory.value().client, editor_->window(),
                             atom("P"), /*del=*/true)
                .code(),
            util::Code::kBadAccess);
  EXPECT_EQ(sel.stats().snoops_blocked, snoops + 1);

  auto data = sel.get_property(editor_->client(), editor_->window(), atom("P"),
                               /*del=*/true);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), "hunter2");
  EXPECT_TRUE(sel.transfers().empty());
  EXPECT_EQ(
      sel.get_property(editor_->client(), editor_->window(), atom("P")).code(),
      util::Code::kBadAtom);
}

TEST_F(SelectionTest, GetPropertyWithDeleteOnForeignWindowKeepsProperty) {
  auto& sel = x_.selections();
  ASSERT_TRUE(sel.change_property(editor_->client(), editor_->window(),
                                  atom("MY"), "v")
                  .is_ok());
  EXPECT_EQ(sel.get_property(pm_->client(), editor_->window(), atom("MY"),
                             /*del=*/true)
                .code(),
            util::Code::kBadAccess);
  auto v = sel.get_property(pm_->client(), editor_->window(), atom("MY"));
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), "v");
}

// Attack: property snooping mid-flight (subscribe + read before deletion).
TEST_F(SelectionTest, MidFlightPropertyReadBlocked) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());

  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());

  // Manually run the paste protocol up to the data handoff, leaving the
  // property alive (before step 13).
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), kClipboard,
                                     editor_->window(), atom("P"))
                  .is_ok());
  // Owner answers.
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(x_.selections()
                      .change_property(pm_->client(), ev.requestor,
                                       ev.property, "hunter2")
                      .is_ok());
    }
  }
  // Mallory tries to read the in-flight property on the editor's window.
  auto sniff = x_.selections().get_property(mallory.value().client,
                                            editor_->window(), atom("P"));
  EXPECT_EQ(sniff.code(), util::Code::kBadAccess);
  EXPECT_GE(x_.selections().stats().snoops_blocked, 1u);
  // The rightful paste target can read it.
  auto legit =
      x_.selections().get_property(editor_->client(), editor_->window(),
                                   atom("P"));
  ASSERT_TRUE(legit.is_ok());
  EXPECT_EQ(legit.value(), "hunter2");
}

// Attack: PropertyNotify snooping — only the paste target receives events
// for in-flight clipboard data.
TEST_F(SelectionTest, MidFlightPropertyEventsOnlyToTarget) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  x_.selections().subscribe_property_events(mallory.value().client,
                                            editor_->window());
  x_.selections().subscribe_property_events(editor_->client(),
                                            editor_->window());

  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  auto pasted = editor_->paste_from(*pm_);
  ASSERT_TRUE(pasted.is_ok());

  // Mallory's queue must contain no PropertyNotify for the transfer.
  XClient* mc = x_.client(mallory.value().client);
  while (mc->has_events()) {
    EXPECT_NE(mc->next_event().type, EventType::kPropertyNotify);
  }
}

TEST_F(SelectionTest, PropertyOnOwnWindowFreelyUsable) {
  auto s = x_.selections().change_property(editor_->client(),
                                           editor_->window(), atom("MY"), "v");
  ASSERT_TRUE(s.is_ok());
  auto v = x_.selections().get_property(editor_->client(), editor_->window(),
                                        atom("MY"));
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), "v");
  ASSERT_TRUE(x_.selections()
                  .delete_property(editor_->client(), editor_->window(),
                                   atom("MY"))
                  .is_ok());
}

TEST_F(SelectionTest, ForeignPropertyWriteBlocked) {
  auto s = x_.selections().change_property(pm_->client(), editor_->window(),
                                           atom("EVIL"), "x");
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
}

// ICCCM TARGETS negotiation: format discovery is metadata and needs no
// input correlation; the data transfer itself still does.
TEST_F(SelectionTest, TargetsNegotiationExemptFromMediation) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  sys_.advance(sim::Duration::seconds(10));  // all interactions stale

  // The editor asks which formats the owner offers — allowed without input.
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), kClipboard,
                                     editor_->window(), atom("T"),
                                     AtomRegistry::kTargets)
                  .is_ok());
  // The owner sees the TARGETS request and answers with its format list.
  bool answered = false;
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest &&
        ev.target == AtomRegistry::kTargets) {
      ASSERT_TRUE(x_.selections()
                      .change_property(pm_->client(), ev.requestor,
                                       ev.property, "STRING,UTF8_STRING")
                      .is_ok());
      answered = true;
    }
  }
  EXPECT_TRUE(answered);
  auto formats = x_.selections().get_property(editor_->client(),
                                              editor_->window(), atom("T"));
  ASSERT_TRUE(formats.is_ok());
  EXPECT_EQ(formats.value(), "STRING,UTF8_STRING");
  ASSERT_TRUE(x_.selections()
                  .delete_property(editor_->client(), editor_->window(),
                                   atom("T"))
                  .is_ok());

  // The actual STRING conversion is still mediated — and denied here.
  EXPECT_EQ(x_.selections()
                .convert_selection(editor_->client(), kClipboard,
                                   editor_->window(), atom("P"),
                                   AtomRegistry::kString)
                .code(),
            util::Code::kBadAccess);
}

TEST_F(SelectionTest, TargetCarriedToOwner) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), kClipboard,
                                     editor_->window(), atom("P"),
                                     atom("UTF8_STRING"))
                  .is_ok());
  bool saw = false;
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      EXPECT_EQ(ev.target, atom("UTF8_STRING"));
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(SelectionTest, OwnerDisconnectClearsSelection) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  ASSERT_TRUE(x_.selections().selection_owner(kClipboard).has_value());
  ASSERT_TRUE(x_.disconnect_client(pm_->client()).is_ok());
  EXPECT_FALSE(x_.selections().selection_owner(kClipboard).has_value());
  // A paste now fails cleanly at the no-owner step.
  user_clicks(*editor_);
  EXPECT_EQ(x_.selections()
                .convert_selection(editor_->client(), kClipboard,
                                   editor_->window(), atom("P"))
                .code(),
            util::Code::kBadAtom);
}

TEST_F(SelectionTest, DisconnectDropsInFlightTransfers) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), kClipboard,
                                     editor_->window(), atom("P"))
                  .is_ok());
  ASSERT_FALSE(x_.selections().transfers().empty());
  ASSERT_TRUE(x_.disconnect_client(pm_->client()).is_ok());
  EXPECT_TRUE(x_.selections().transfers().empty());
}

TEST_F(SelectionTest, BaselineAllowsSniffing) {
  // On the unmodified system the same attack succeeds — the differential
  // oracle for the paper's clipboard protection claim.
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto pm = apps::PasswordManagerApp::launch(base).value();
  auto mallory_handle = base.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory_handle.is_ok());
  pm->store_password("bank", "hunter2");
  ASSERT_TRUE(pm->copy_password_to_clipboard("bank").is_ok());  // no input needed

  // Mallory pastes without any user interaction: granted at baseline.
  class MalloryApp : public apps::GuiApp {
   public:
    using GuiApp::GuiApp;
  };
  MalloryApp mallory(base, mallory_handle.value(), "mal");
  auto loot = icccm_paste(base.xserver(), *pm, mallory, "CLIPBOARD",
                          pm->pending_clipboard());
  ASSERT_TRUE(loot.is_ok());
  EXPECT_EQ(loot.value(), "hunter2");
}

}  // namespace
}  // namespace overhaul::x11

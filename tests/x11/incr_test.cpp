// INCR (incremental selection transfer) tests: ICCCM's large-payload path,
// with Overhaul's in-flight protections holding across every chunk.
#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/runtime.h"
#include "core/system.h"

namespace overhaul::x11 {
namespace {

using util::Code;

class IncrTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  std::unique_ptr<apps::PasswordManagerApp> src_;
  std::unique_ptr<apps::EditorApp> dst_;

  void SetUp() override {
    src_ = apps::PasswordManagerApp::launch(sys_).value();
    dst_ = apps::EditorApp::launch(sys_).value();
  }

  void user_clicks(const apps::GuiApp& app) {
    (void)sys_.xserver().raise_surface(app.client(), app.window());
    auto [cx, cy] = app.click_point();
    sys_.input().click(cx, cy);
  }

  const Atom kP = sys_.xserver().atoms().intern("P");
};

TEST_F(IncrTest, LargePayloadRoundTrips) {
  const std::string big(1'000'000, 'A');  // ~1 MB, 16 chunks of 64 KiB
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto pasted = apps::icccm_paste_incr(sys_.xserver(), *src_, *dst_,
                                       "CLIPBOARD", big);
  ASSERT_TRUE(pasted.is_ok()) << pasted.status().to_string();
  EXPECT_EQ(pasted.value().size(), big.size());
  EXPECT_EQ(pasted.value(), big);
}

TEST_F(IncrTest, OneShotWriteAboveThresholdRejected) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  const std::string big(SelectionManager::kIncrThreshold + 1, 'B');
  auto pasted =
      apps::icccm_paste(sys_.xserver(), *src_, *dst_, "CLIPBOARD", big);
  EXPECT_EQ(pasted.code(), Code::kInvalidArgument);
}

TEST_F(IncrTest, IncrWithoutTransferRejected) {
  auto s = sys_.xserver().selections().begin_incr(src_->client(),
                                                  dst_->window(), kP, 100);
  EXPECT_EQ(s.code(), Code::kBadAccess);
  EXPECT_EQ(sys_.xserver()
                .selections()
                .send_incr_chunk(src_->client(), dst_->window(), kP, "x")
                .code(),
            Code::kBadAccess);
}

TEST_F(IncrTest, ChunkRequiresPreviousConsumed) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto& sel = sys_.xserver().selections();
  ASSERT_TRUE(sel.convert_selection(dst_->client(), AtomRegistry::kClipboard,
                                    dst_->window(), kP)
                  .is_ok());
  for (const auto& ev : src_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(
          sel.begin_incr(src_->client(), ev.requestor, ev.property, 10)
              .is_ok());
    }
  }
  // The INCR marker is still in the property: a chunk cannot be sent yet.
  EXPECT_EQ(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "abc").code(),
      Code::kWouldBlock);
  ASSERT_TRUE(sel.delete_property(dst_->client(), dst_->window(), kP).is_ok());
  EXPECT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "abc").is_ok());
}

TEST_F(IncrTest, SnoopBlockedOnEveryChunk) {
  auto mallory = sys_.launch_gui_app("/home/user/.snoop", "snoop");
  ASSERT_TRUE(mallory.is_ok());

  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto& sel = sys_.xserver().selections();
  ASSERT_TRUE(sel.convert_selection(dst_->client(), AtomRegistry::kClipboard,
                                    dst_->window(), kP)
                  .is_ok());
  for (const auto& ev : src_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(
          sel.begin_incr(src_->client(), ev.requestor, ev.property, 6)
              .is_ok());
    }
  }
  ASSERT_TRUE(sel.delete_property(dst_->client(), dst_->window(), kP).is_ok());

  // First chunk lands; Mallory tries to read it before the requestor does.
  ASSERT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "secret").is_ok());
  auto sniff =
      sel.get_property(mallory.value().client, dst_->window(), kP);
  EXPECT_EQ(sniff.code(), Code::kBadAccess);
  // The requestor reads it fine.
  EXPECT_TRUE(sel.get_property(dst_->client(), dst_->window(), kP).is_ok());
  ASSERT_TRUE(sel.delete_property(dst_->client(), dst_->window(), kP).is_ok());

  // Terminator: empty chunk; after its consumption the transfer ends and
  // the property protections lapse with it.
  ASSERT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "").is_ok());
  ASSERT_TRUE(sel.delete_property(dst_->client(), dst_->window(), kP).is_ok());
  EXPECT_TRUE(sel.transfers().empty());
}

// GetProperty with the delete flag acknowledges an INCR chunk as
// DeleteProperty does: the transfer outlives every chunk but the empty
// terminator.
TEST_F(IncrTest, GetPropertyWithDeleteAcknowledgesChunks) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto& sel = sys_.xserver().selections();
  ASSERT_TRUE(sel.convert_selection(dst_->client(), AtomRegistry::kClipboard,
                                    dst_->window(), kP)
                  .is_ok());
  for (const auto& ev : src_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(
          sel.begin_incr(src_->client(), ev.requestor, ev.property, 3)
              .is_ok());
    }
  }
  auto marker = sel.get_property(dst_->client(), dst_->window(), kP, true);
  ASSERT_TRUE(marker.is_ok());
  EXPECT_EQ(marker.value(), "INCR:3");
  ASSERT_EQ(sel.transfers().size(), 1u);

  ASSERT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "abc").is_ok());
  auto chunk = sel.get_property(dst_->client(), dst_->window(), kP, true);
  ASSERT_TRUE(chunk.is_ok());
  EXPECT_EQ(chunk.value(), "abc");
  ASSERT_EQ(sel.transfers().size(), 1u);

  ASSERT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "").is_ok());
  auto last = sel.get_property(dst_->client(), dst_->window(), kP, true);
  ASSERT_TRUE(last.is_ok());
  EXPECT_TRUE(last.value().empty());
  EXPECT_TRUE(sel.transfers().empty());
}

TEST_F(IncrTest, ChunkAfterTerminatorRejected) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto& sel = sys_.xserver().selections();
  ASSERT_TRUE(sel.convert_selection(dst_->client(), AtomRegistry::kClipboard,
                                    dst_->window(), kP)
                  .is_ok());
  for (const auto& ev : src_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(
          sel.begin_incr(src_->client(), ev.requestor, ev.property, 0)
              .is_ok());
    }
  }
  ASSERT_TRUE(sel.delete_property(dst_->client(), dst_->window(), kP).is_ok());
  ASSERT_TRUE(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "").is_ok());
  EXPECT_EQ(
      sel.send_incr_chunk(src_->client(), dst_->window(), kP, "late").code(),
      Code::kBadRequest);
}

TEST_F(IncrTest, NegotiatedPastePicksFormatAndDelivers) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto pasted = apps::icccm_paste_negotiated(sys_.xserver(), *src_, *dst_,
                                             "CLIPBOARD", "hello-utf8");
  ASSERT_TRUE(pasted.is_ok()) << pasted.status().to_string();
  EXPECT_EQ(pasted.value(), "hello-utf8");
}

TEST_F(IncrTest, NegotiatedPasteUsesIncrForLargeData) {
  const std::string big(600'000, 'Z');
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto pasted = apps::icccm_paste_negotiated(sys_.xserver(), *src_, *dst_,
                                             "CLIPBOARD", big);
  ASSERT_TRUE(pasted.is_ok());
  EXPECT_EQ(pasted.value(), big);
}

TEST_F(IncrTest, NegotiatedPasteFailsOnFormatMismatch) {
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  user_clicks(*dst_);
  auto pasted = apps::icccm_paste_negotiated(
      sys_.xserver(), *src_, *dst_, "CLIPBOARD", "x", {"image/png"});
  EXPECT_EQ(pasted.code(), Code::kNotSupported);
}

TEST_F(IncrTest, IncrStillNeedsPasteGrant) {
  // The INCR path does not bypass the step-6 mediation: without user input
  // the ConvertSelection is denied before any chunking starts.
  user_clicks(*src_);
  ASSERT_TRUE(apps::icccm_copy(sys_.xserver(), *src_, "CLIPBOARD").is_ok());
  sys_.advance(sim::Duration::seconds(5));
  auto pasted = apps::icccm_paste_incr(sys_.xserver(), *src_, *dst_,
                                       "CLIPBOARD", std::string(100, 'x'));
  EXPECT_EQ(pasted.code(), Code::kBadAccess);
}

}  // namespace
}  // namespace overhaul::x11

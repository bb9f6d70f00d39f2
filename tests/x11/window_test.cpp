#include "display/surface.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using core::OverhaulSystem;

TEST(Window, RectContains) {
  Rect r{10, 10, 100, 50};
  EXPECT_TRUE(r.contains(10, 10));
  EXPECT_TRUE(r.contains(109, 59));
  EXPECT_FALSE(r.contains(110, 30));
  EXPECT_FALSE(r.contains(9, 30));
}

TEST(Window, VisibilityClockRestartsOnMap) {
  display::Surface w(5, 1, Rect{0, 0, 10, 10});
  sim::Timestamp t0{1'000};
  w.map(t0);
  EXPECT_TRUE(w.mapped());
  EXPECT_EQ(w.visible_for(t0 + sim::Duration::seconds(3)),
            sim::Duration::seconds(3));
  w.unmap();
  EXPECT_EQ(w.visible_for(t0 + sim::Duration::seconds(4)), sim::Duration{0});
  w.map(t0 + sim::Duration::seconds(5));
  EXPECT_EQ(w.visible_for(t0 + sim::Duration::seconds(6)),
            sim::Duration::seconds(1));
}

TEST(Window, PixelBufferSized) {
  display::Surface w(5, 1, Rect{0, 0, 16, 8});
  EXPECT_EQ(w.pixels().size(), 128u);
  w.fill(0xFF00FF00u);
  EXPECT_EQ(w.pixels()[64], 0xFF00FF00u);
}

class ServerWindowTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();
};

TEST_F(ServerWindowTest, RootWindowExists) {
  display::Surface* root = x_.surface(kRootWindow);
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->mapped());
  EXPECT_EQ(root->rect().width, sys_.config().screen_width);
}

TEST_F(ServerWindowTest, CreateMapAndStack) {
  auto app = sys_.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  ASSERT_TRUE(app.is_ok());
  auto app2 = sys_.launch_gui_app("/usr/bin/b", "b", Rect{50, 50, 100, 100});
  ASSERT_TRUE(app2.is_ok());
  // b was mapped later → on top at the overlap point.
  display::Surface* hit = x_.surface_at(75, 75);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id(), app2.value().window);
  // a is hit outside the overlap.
  hit = x_.surface_at(10, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id(), app.value().window);
}

TEST_F(ServerWindowTest, RaiseReordersStack) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  auto b = sys_.launch_gui_app("/usr/bin/b", "b", Rect{0, 0, 100, 100});
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  ASSERT_TRUE(x_.raise_surface(a.value().client, a.value().window).is_ok());
  EXPECT_EQ(x_.surface_at(50, 50)->id(), a.value().window);
}

TEST_F(ServerWindowTest, OnlyOwnerMayManipulate) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a");
  auto b = sys_.launch_gui_app("/usr/bin/b", "b");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(x_.hide_surface(b.value().client, a.value().window).code(),
            util::Code::kBadAccess);
  EXPECT_EQ(x_.raise_surface(b.value().client, a.value().window).code(),
            util::Code::kBadAccess);
  EXPECT_EQ(x_.set_input_only(b.value().client, a.value().window, true).code(),
            util::Code::kBadAccess);
}

TEST_F(ServerWindowTest, UnmappedWindowNotHit) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(x_.hide_surface(a.value().client, a.value().window).is_ok());
  EXPECT_EQ(x_.surface_at(50, 50), nullptr);
}

TEST_F(ServerWindowTest, EmptyGeometryRejected) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a");
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(x_.open_surface(a.value().client, Rect{0, 0, 0, 10}).code(),
            util::Code::kInvalidArgument);
}

TEST_F(ServerWindowTest, DisconnectDestroysWindows) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(x_.disconnect_client(a.value().client).is_ok());
  EXPECT_EQ(x_.surface(a.value().window), nullptr);
  EXPECT_EQ(x_.surface_at(50, 50), nullptr);
  EXPECT_EQ(x_.client(a.value().client), nullptr);
}

TEST_F(ServerWindowTest, ConnectRequiresLiveProcess) {
  EXPECT_EQ(x_.attach_client(4242).code(), util::Code::kNotFound);
}

TEST_F(ServerWindowTest, ConfigureMovesAndResizes) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a", Rect{0, 0, 100, 100});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(x_.configure_surface(a.value().client, a.value().window,
                                  Rect{200, 300, 150, 120})
                  .is_ok());
  const display::Surface* win = x_.surface(a.value().window);
  EXPECT_EQ(win->rect().x, 200);
  EXPECT_EQ(win->rect().width, 150);
  EXPECT_EQ(win->pixels().size(), 150u * 120u);
  EXPECT_EQ(x_.surface_at(210, 310), win);
  EXPECT_EQ(x_.surface_at(10, 10), nullptr);
}

TEST_F(ServerWindowTest, ConfigureValidation) {
  auto a = sys_.launch_gui_app("/usr/bin/a", "a");
  auto b = sys_.launch_gui_app("/usr/bin/b", "b");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(x_.configure_surface(b.value().client, a.value().window,
                                Rect{0, 0, 10, 10})
                .code(),
            util::Code::kBadAccess);
  EXPECT_EQ(x_.configure_surface(a.value().client, a.value().window,
                                Rect{0, 0, 0, 10})
                .code(),
            util::Code::kInvalidArgument);
  EXPECT_EQ(x_.configure_surface(a.value().client, 9999, Rect{0, 0, 5, 5})
                .code(),
            util::Code::kBadWindow);
}

// The teleport attack: age a window off-screen, then move it under the
// pointer. The move restarts the visibility clock, so the harvested click
// yields no interaction record.
TEST_F(ServerWindowTest, MoveRestartsVisibilityClock) {
  auto victim = sys_.launch_gui_app("/usr/bin/victim", "victim",
                                    Rect{0, 0, 100, 100});
  auto attacker = sys_.launch_gui_app("/home/user/.mal", "mal",
                                      Rect{900, 700, 100, 60});
  ASSERT_TRUE(victim.is_ok() && attacker.is_ok());
  sys_.advance(sim::Duration::minutes(10));  // attacker window well aged
  ASSERT_TRUE(x_.configure_surface(attacker.value().client,
                                  attacker.value().window,
                                  Rect{0, 0, 100, 60})
                  .is_ok());
  sys_.input().click(50, 30);  // intended for the victim
  EXPECT_TRUE(sys_.kernel()
                  .processes()
                  .lookup(attacker.value().pid)
                  ->interaction_ts.is_never());
}

TEST_F(ServerWindowTest, EventQueueBounded) {
  auto a = sys_.launch_gui_app("/usr/bin/lazy", "lazy", Rect{0, 0, 50, 50});
  ASSERT_TRUE(a.is_ok());
  XClient* c = x_.client(a.value().client);
  for (std::size_t i = 0; i < XClient::kMaxQueuedEvents + 100; ++i) {
    sys_.input().click(10, 10);
  }
  EXPECT_EQ(c->pending_events(), XClient::kMaxQueuedEvents);
  EXPECT_EQ(c->dropped_events(), 100u);
}

}  // namespace
}  // namespace overhaul::x11

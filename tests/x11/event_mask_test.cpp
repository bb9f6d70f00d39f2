// XSelectInput / event-mask delivery tests.
#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Rect;
using util::Code;

class EventMaskTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  core::OverhaulSystem::AppHandle app(const std::string& name,
                                      Rect r = {0, 0, 100, 100}) {
    return sys_.launch_gui_app("/usr/bin/" + name, name, r).value();
  }

  static std::vector<EventType> types_of(XClient* c) {
    std::vector<EventType> out;
    while (c->has_events()) out.push_back(c->next_event().type);
    return out;
  }
};

TEST_F(EventMaskTest, SelectInputValidation) {
  auto a = app("a");
  EXPECT_EQ(x_.select_input(999, a.window, kStructureNotifyMask).code(),
            Code::kNotFound);
  EXPECT_EQ(x_.select_input(a.client, 999, kStructureNotifyMask).code(),
            Code::kBadWindow);
  EXPECT_TRUE(x_.select_input(a.client, a.window, kStructureNotifyMask).is_ok());
}

TEST_F(EventMaskTest, StructureNotifyOnMapUnmapConfigure) {
  auto a = app("a");
  auto watcher = app("wm", {500, 500, 50, 50});
  ASSERT_TRUE(
      x_.select_input(watcher.client, a.window, kStructureNotifyMask).is_ok());
  x_.client(watcher.client)->drain();

  ASSERT_TRUE(x_.hide_surface(a.client, a.window).is_ok());
  ASSERT_TRUE(x_.show_surface(a.client, a.window).is_ok());
  ASSERT_TRUE(
      x_.configure_surface(a.client, a.window, Rect{10, 10, 100, 100}).is_ok());

  const auto types = types_of(x_.client(watcher.client));
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], EventType::kUnmapNotify);
  EXPECT_EQ(types[1], EventType::kMapNotify);
  EXPECT_EQ(types[2], EventType::kConfigureNotify);
}

TEST_F(EventMaskTest, NoMaskNoEvents) {
  auto a = app("a");
  auto watcher = app("wm", {500, 500, 50, 50});
  x_.client(watcher.client)->drain();
  ASSERT_TRUE(x_.hide_surface(a.client, a.window).is_ok());
  EXPECT_FALSE(x_.client(watcher.client)->has_events());
}

TEST_F(EventMaskTest, MaskReplacedNotAccumulated) {
  auto a = app("a");
  auto watcher = app("wm", {500, 500, 50, 50});
  ASSERT_TRUE(
      x_.select_input(watcher.client, a.window, kStructureNotifyMask).is_ok());
  ASSERT_TRUE(
      x_.select_input(watcher.client, a.window, kPropertyChangeMask).is_ok());
  x_.client(watcher.client)->drain();
  ASSERT_TRUE(x_.hide_surface(a.client, a.window).is_ok());
  EXPECT_FALSE(x_.client(watcher.client)->has_events());  // structure bit gone
}

TEST_F(EventMaskTest, ClearingMaskStopsDelivery) {
  auto a = app("a");
  auto watcher = app("wm", {500, 500, 50, 50});
  ASSERT_TRUE(
      x_.select_input(watcher.client, a.window, kStructureNotifyMask).is_ok());
  ASSERT_TRUE(x_.select_input(watcher.client, a.window, kNoEventMask).is_ok());
  x_.client(watcher.client)->drain();
  ASSERT_TRUE(x_.hide_surface(a.client, a.window).is_ok());
  EXPECT_FALSE(x_.client(watcher.client)->has_events());
}

TEST_F(EventMaskTest, PropertyChangeMaskDeliversOwnWindowWrites) {
  auto a = app("a");
  ASSERT_TRUE(
      x_.select_input(a.client, a.window, kPropertyChangeMask).is_ok());
  x_.client(a.client)->drain();
  ASSERT_TRUE(
      x_.selections()
          .change_property(a.client, a.window, x_.atoms().intern("MINE"), "v")
          .is_ok());
  const auto types = types_of(x_.client(a.client));
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(types[0], EventType::kPropertyNotify);
}

TEST_F(EventMaskTest, MultipleSelectorsAllReceive) {
  auto a = app("a");
  auto w1 = app("w1", {500, 0, 50, 50});
  auto w2 = app("w2", {600, 0, 50, 50});
  ASSERT_TRUE(
      x_.select_input(w1.client, a.window, kStructureNotifyMask).is_ok());
  ASSERT_TRUE(
      x_.select_input(w2.client, a.window, kStructureNotifyMask).is_ok());
  x_.client(w1.client)->drain();
  x_.client(w2.client)->drain();
  ASSERT_TRUE(x_.hide_surface(a.client, a.window).is_ok());
  EXPECT_TRUE(x_.client(w1.client)->has_events());
  EXPECT_TRUE(x_.client(w2.client)->has_events());
}

}  // namespace
}  // namespace overhaul::x11

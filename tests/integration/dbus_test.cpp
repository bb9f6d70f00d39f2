// D-Bus coverage (§IV-B): interaction timestamps propagate through the bus
// daemon with no bus-specific Overhaul code, because every hop is a real
// unix-socket send/receive.
#include <gtest/gtest.h>

#include "apps/dbus.h"
#include "core/system.h"

namespace overhaul {
namespace {

using apps::DBusDaemon;
using util::Code;

class DBusTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  std::unique_ptr<DBusDaemon> bus_;

  void SetUp() override { bus_ = DBusDaemon::start(sys_).value(); }
};

TEST_F(DBusTest, NameRegistrationAndRouting) {
  auto svc_pid = sys_.launch_daemon("/usr/bin/portal", "portal").value();
  auto svc = bus_->connect(svc_pid).value();
  ASSERT_TRUE(svc->request_name("org.overhaul.Portal").is_ok());
  EXPECT_EQ(bus_->owner_of("org.overhaul.Portal"), svc->id());
  EXPECT_EQ(svc->request_name("org.overhaul.Portal").code(), Code::kExists);

  auto app_pid = sys_.launch_daemon("/usr/bin/app", "app").value();
  auto app = bus_->connect(app_pid).value();
  ASSERT_TRUE(app->call("org.overhaul.Portal", "OpenCamera", "{}").is_ok());
  EXPECT_EQ(bus_->pump(), 1u);

  auto msg = svc->next_message();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->member, "OpenCamera");
  EXPECT_EQ(msg->payload, "{}");
  // Appended rather than `":" + std::to_string(...)`: GCC 12 at -O3 reports
  // a false -Wrestrict on the insert-at-front that operator+ inlines.
  std::string sender = ":";
  sender += std::to_string(app->id());
  EXPECT_EQ(msg->sender, sender);
}

TEST_F(DBusTest, UnknownDestinationDropped) {
  auto app_pid = sys_.launch_daemon("/usr/bin/app", "app").value();
  auto app = bus_->connect(app_pid).value();
  ASSERT_TRUE(app->call("org.nobody.Home", "Ping", "").is_ok());
  EXPECT_EQ(bus_->pump(), 0u);
  EXPECT_EQ(bus_->stats().dropped_no_owner, 1u);
}

// The headline property: a GUI app's interaction travels app → daemon →
// portal service, and the service's device open is granted.
TEST_F(DBusTest, InteractionPropagatesThroughBusToPortal) {
  auto gui = sys_.launch_gui_app("/usr/bin/camapp", "camapp").value();
  auto app = bus_->connect(gui.pid).value();

  auto portal_pid =
      sys_.launch_daemon("/usr/bin/xdg-portal", "xdg-portal").value();
  auto portal = bus_->connect(portal_pid).value();
  ASSERT_TRUE(portal->request_name("org.overhaul.Portal").is_ok());

  // Without any user input, the full chain ends in a denial.
  ASSERT_TRUE(app->call("org.overhaul.Portal", "OpenCamera", "").is_ok());
  bus_->pump();
  ASSERT_TRUE(portal->next_message().has_value());
  auto fd = sys_.kernel().sys_open(portal_pid,
                                   core::OverhaulSystem::camera_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);

  // The user clicks the app; the same chain now ends in a grant.
  const auto& r = sys_.xserver().surface(gui.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  ASSERT_TRUE(app->call("org.overhaul.Portal", "OpenCamera", "").is_ok());
  bus_->pump();
  ASSERT_TRUE(portal->next_message().has_value());
  fd = sys_.kernel().sys_open(portal_pid,
                              core::OverhaulSystem::camera_path(),
                              kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok()) << fd.status().to_string();
}

TEST_F(DBusTest, DaemonTimestampExpiresNormally) {
  auto gui = sys_.launch_gui_app("/usr/bin/camapp", "camapp").value();
  auto app = bus_->connect(gui.pid).value();
  auto portal_pid =
      sys_.launch_daemon("/usr/bin/xdg-portal", "xdg-portal").value();
  auto portal = bus_->connect(portal_pid).value();
  ASSERT_TRUE(portal->request_name("org.overhaul.Portal").is_ok());

  const auto& r = sys_.xserver().surface(gui.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  ASSERT_TRUE(app->call("org.overhaul.Portal", "OpenCamera", "").is_ok());
  bus_->pump();
  (void)portal->next_message();
  // The portal sits on the message too long: the propagated stamp expires.
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  auto fd = sys_.kernel().sys_open(portal_pid,
                                   core::OverhaulSystem::camera_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
}

TEST_F(DBusTest, MalwareCallingPortalGainsNothing) {
  // A background process with no interaction cannot use the portal as a
  // confused deputy here, but only because nothing else on the bus carries
  // a fresh stamp: the daemon stamps every message it forwards with the
  // freshest stamp of any client (BusRiderRidesAnUnrelatedClick).
  auto mal_pid = sys_.launch_daemon("/home/user/.mal", "mal").value();
  auto mal = bus_->connect(mal_pid).value();
  auto portal_pid =
      sys_.launch_daemon("/usr/bin/xdg-portal", "xdg-portal").value();
  auto portal = bus_->connect(portal_pid).value();
  ASSERT_TRUE(portal->request_name("org.overhaul.Portal").is_ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(mal->call("org.overhaul.Portal", "OpenCamera", "").is_ok());
    bus_->pump();
    (void)portal->next_message();
    auto fd = sys_.kernel().sys_open(portal_pid,
                                     core::OverhaulSystem::camera_path(),
                                     kern::OpenFlags::kRead);
    EXPECT_EQ(fd.code(), Code::kOverhaulDenied);
  }
}

// P2 over-approximation, pinned as it stands: the daemon adopts the
// freshest stamp of any client and stamps every message it forwards with
// it, as the paper's P2 rule says. So a process that never saw input rides
// an unrelated user-driven call: routed in the same pump as a clicked app's
// call to another service, its OpenCamera reaches the portal carrying the
// app's stamp, and the portal's camera open is granted.
TEST_F(DBusTest, BusRiderRidesAnUnrelatedClick) {
  auto gui = sys_.launch_gui_app("/usr/bin/editor", "editor").value();
  auto app = bus_->connect(gui.pid).value();
  auto notes_pid = sys_.launch_daemon("/usr/bin/notes", "notes").value();
  auto notes = bus_->connect(notes_pid).value();
  ASSERT_TRUE(notes->request_name("org.example.Notes").is_ok());
  auto rider_pid = sys_.launch_daemon("/home/user/.rider", "rider").value();
  auto rider = bus_->connect(rider_pid).value();
  auto portal_pid =
      sys_.launch_daemon("/usr/bin/xdg-portal", "xdg-portal").value();
  auto portal = bus_->connect(portal_pid).value();
  ASSERT_TRUE(portal->request_name("org.overhaul.Portal").is_ok());

  const auto& r = sys_.xserver().surface(gui.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  ASSERT_TRUE(app->call("org.example.Notes", "Save", "").is_ok());
  ASSERT_TRUE(rider->call("org.overhaul.Portal", "OpenCamera", "").is_ok());
  EXPECT_EQ(bus_->pump(), 2u);
  ASSERT_TRUE(notes->next_message().has_value());
  const auto call = portal->next_message();
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->member, "OpenCamera");

  // The rider holds no stamp of its own...
  EXPECT_EQ(sys_.kernel()
                .sys_open(rider_pid, core::OverhaulSystem::camera_path(),
                          kern::OpenFlags::kRead)
                .code(),
            Code::kOverhaulDenied);
  // ...but the portal it called opens the camera on the app's click.
  auto fd = sys_.kernel().sys_open(portal_pid,
                                   core::OverhaulSystem::camera_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok()) << fd.status().to_string();
}

TEST_F(DBusTest, StatsCountRoutedAndDropped) {
  auto a_pid = sys_.launch_daemon("/usr/bin/a", "a").value();
  auto b_pid = sys_.launch_daemon("/usr/bin/b", "b").value();
  auto a = bus_->connect(a_pid).value();
  auto b = bus_->connect(b_pid).value();
  ASSERT_TRUE(b->request_name("org.b").is_ok());
  ASSERT_TRUE(a->call("org.b", "M", "1").is_ok());
  ASSERT_TRUE(a->call("org.b", "M", "2").is_ok());
  ASSERT_TRUE(a->call("org.nowhere", "M", "3").is_ok());
  EXPECT_EQ(bus_->pump(), 2u);
  EXPECT_EQ(bus_->stats().routed, 2u);
  EXPECT_EQ(bus_->stats().dropped_no_owner, 1u);
  EXPECT_EQ(bus_->connection_count(), 2u);
}

TEST_F(DBusTest, ConnectRequiresLiveProcess) {
  EXPECT_EQ(bus_->connect(9999).code(), Code::kNotFound);
}

TEST_F(DBusTest, DeadDaemonStopsRouting) {
  auto a_pid = sys_.launch_daemon("/usr/bin/a", "a").value();
  auto b_pid = sys_.launch_daemon("/usr/bin/b", "b").value();
  auto a = bus_->connect(a_pid).value();
  auto b = bus_->connect(b_pid).value();
  ASSERT_TRUE(b->request_name("org.b").is_ok());
  ASSERT_TRUE(sys_.kernel().sys_exit(bus_->pid()).is_ok());
  ASSERT_TRUE(a->call("org.b", "M", "x").is_ok());  // queued on the socket
  EXPECT_EQ(bus_->pump(), 0u);  // dead daemon task: nothing routed
  EXPECT_FALSE(b->next_message().has_value());
}

TEST_F(DBusTest, BadBusNamesRejected) {
  auto pid = sys_.launch_daemon("/usr/bin/a", "a").value();
  auto conn = bus_->connect(pid).value();
  EXPECT_EQ(conn->request_name("").code(), Code::kInvalidArgument);
  EXPECT_EQ(conn->request_name(std::string("bad\x1fname")).code(),
            Code::kInvalidArgument);
}

TEST_F(DBusTest, BaselineBusStillRoutes) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto bus = DBusDaemon::start(base).value();
  auto a_pid = base.launch_daemon("/usr/bin/a", "a").value();
  auto b_pid = base.launch_daemon("/usr/bin/b", "b").value();
  auto a = bus->connect(a_pid).value();
  auto b = bus->connect(b_pid).value();
  ASSERT_TRUE(b->request_name("org.b").is_ok());
  ASSERT_TRUE(a->call("org.b", "Hello", "x").is_ok());
  bus->pump();
  auto msg = b->next_message();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "x");
}

}  // namespace
}  // namespace overhaul

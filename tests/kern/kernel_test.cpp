// Kernel facade tests: the syscall surface applications program against.
#include "kern/kernel.h"

#include <gtest/gtest.h>

namespace overhaul::kern {
namespace {

using util::Code;

class KernelTest : public ::testing::Test {
 protected:
  sim::Clock clock_;
  Kernel k_{clock_};

  Pid spawn(const std::string& comm = "app") {
    return k_.sys_spawn(1, "/usr/bin/" + comm, comm).value();
  }
};

TEST_F(KernelTest, SpawnSetsImage) {
  const Pid pid = spawn("worker");
  const TaskStruct* t = k_.processes().lookup(pid);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->comm, "worker");
  EXPECT_EQ(t->exe_path, "/usr/bin/worker");
  EXPECT_EQ(t->ppid, 1);
}

TEST_F(KernelTest, PipeRoundTripThroughFds) {
  const Pid pid = spawn();
  auto fds = k_.sys_pipe(pid).value();
  auto n = k_.sys_write(pid, fds.second, "hello");
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 5u);
  auto data = k_.sys_read(pid, fds.first, 16);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), "hello");
}

TEST_F(KernelTest, PipeDirectionEnforced) {
  const Pid pid = spawn();
  auto fds = k_.sys_pipe(pid).value();
  EXPECT_EQ(k_.sys_write(pid, fds.first, "x").code(), Code::kInvalidArgument);
  EXPECT_EQ(k_.sys_read(pid, fds.second, 1).code(), Code::kInvalidArgument);
}

TEST_F(KernelTest, PipeSurvivesForkSharing) {
  const Pid parent = spawn();
  auto fds = k_.sys_pipe(parent).value();
  const Pid child = k_.sys_fork(parent).value();
  // Parent writes, child reads through the inherited descriptor.
  ASSERT_TRUE(k_.sys_write(parent, fds.second, "from-parent").is_ok());
  auto data = k_.sys_read(child, fds.first, 32);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), "from-parent");
}

TEST_F(KernelTest, ChildClosingInheritedEndLeavesParentsOpen) {
  const Pid parent = spawn();
  const auto [rfd, wfd] = k_.sys_pipe(parent).value();
  const Pid child = k_.sys_fork(parent).value();
  ASSERT_TRUE(k_.sys_close(child, wfd).is_ok());
  EXPECT_EQ(k_.sys_write(child, wfd, "x").code(), Code::kInvalidArgument);
  ASSERT_TRUE(k_.sys_write(parent, wfd, "after-close").is_ok());
  EXPECT_EQ(k_.sys_read(child, rfd, 32).value_or("?"), "after-close");
  // The child's exit and reap drop its references, not the parent's.
  ASSERT_TRUE(k_.sys_exit(child).is_ok());
  ASSERT_TRUE(k_.processes().reap(child).is_ok());
  ASSERT_TRUE(k_.sys_write(parent, wfd, "after-reap").is_ok());
  EXPECT_EQ(k_.sys_read(parent, rfd, 32).value_or("?"), "after-reap");
}

TEST_F(KernelTest, PipePropagatesInteraction) {
  const Pid a = spawn("a");
  const Pid b = spawn("b");
  auto fds = k_.sys_pipe(a).value();
  // Hand the read end to b (as a supervisor would via fd passing).
  k_.processes().lookup(b)->fds.insert(
      100, k_.processes().lookup(a)->fds.at(fds.first));
  clock_.advance(sim::Duration::seconds(1));
  k_.monitor().record_interaction(a, clock_.now());
  ASSERT_TRUE(k_.sys_write(a, fds.second, "data").is_ok());
  ASSERT_TRUE(k_.sys_read(b, 100, 16).is_ok());
  EXPECT_EQ(k_.processes().lookup(b)->interaction_ts, clock_.now());
}

TEST_F(KernelTest, FifoThroughVfsPath) {
  const Pid a = spawn("a");
  const Pid b = spawn("b");
  ASSERT_TRUE(k_.sys_mkfifo(a, "/tmp/pipe").is_ok());
  auto wfd = k_.sys_open(a, "/tmp/pipe", OpenFlags::kWrite);
  ASSERT_TRUE(wfd.is_ok());
  auto rfd = k_.sys_open(b, "/tmp/pipe", OpenFlags::kRead);
  ASSERT_TRUE(rfd.is_ok());
  ASSERT_TRUE(k_.sys_write(a, wfd.value(), "through-fifo").is_ok());
  auto data = k_.sys_read(b, rfd.value(), 32);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), "through-fifo");
}

TEST_F(KernelTest, FifoPropagatesInteraction) {
  const Pid a = spawn("a");
  const Pid b = spawn("b");
  ASSERT_TRUE(k_.sys_mkfifo(a, "/tmp/pipe").is_ok());
  auto wfd = k_.sys_open(a, "/tmp/pipe", OpenFlags::kWrite).value();
  auto rfd = k_.sys_open(b, "/tmp/pipe", OpenFlags::kRead).value();
  clock_.advance(sim::Duration::seconds(2));
  k_.monitor().record_interaction(a, clock_.now());
  ASSERT_TRUE(k_.sys_write(a, wfd, "x").is_ok());
  ASSERT_TRUE(k_.sys_read(b, rfd, 8).is_ok());
  EXPECT_EQ(k_.processes().lookup(b)->interaction_ts, clock_.now());
}

TEST_F(KernelTest, RegularFileReadWrite) {
  const Pid pid = spawn();
  auto fd = k_.sys_open(pid, "/tmp/file", OpenFlags::kCreate).value();
  ASSERT_TRUE(k_.sys_write(pid, fd, "12345678").is_ok());
  EXPECT_EQ(k_.sys_stat("/tmp/file").value().size, 8u);
  auto data = k_.sys_read(pid, fd, 4);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().size(), 4u);
}

TEST_F(KernelTest, CloseInvalidatesFd) {
  const Pid pid = spawn();
  auto fd = k_.sys_open(pid, "/tmp/file", OpenFlags::kCreate).value();
  ASSERT_TRUE(k_.sys_close(pid, fd).is_ok());
  EXPECT_EQ(k_.sys_read(pid, fd, 1).code(), Code::kInvalidArgument);
  EXPECT_EQ(k_.sys_close(pid, fd).code(), Code::kInvalidArgument);
}

TEST_F(KernelTest, CloseOfUnknownFdIsBadFd) {
  const Pid pid = spawn();
  const auto [rfd, wfd] = k_.sys_pipe(pid).value();
  const int file = k_.sys_open(pid, "/tmp/file", OpenFlags::kCreate).value();
  ASSERT_TRUE(k_.sys_close(pid, wfd).is_ok());
  // Below the first open fd, in the hole between two, past the last.
  for (const int fd : {-1, 0, rfd - 1, wfd, file + 1, 1'000}) {
    const util::Status s = k_.sys_close(pid, fd);
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << "fd " << fd;
    EXPECT_EQ(s.message(), "bad fd") << "fd " << fd;
  }
  EXPECT_TRUE(k_.sys_close(pid, rfd).is_ok());
  EXPECT_TRUE(k_.sys_close(pid, file).is_ok());
}

TEST_F(KernelTest, UnlinkRespectsOwnership) {
  const Pid owner = spawn("owner");
  k_.processes().lookup(owner)->uid = 1000;
  const Pid other = spawn("other");
  k_.processes().lookup(other)->uid = 2000;
  ASSERT_TRUE(k_.sys_open(owner, "/tmp/mine", OpenFlags::kCreate).is_ok());
  EXPECT_EQ(k_.sys_unlink(other, "/tmp/mine").code(), Code::kPermissionDenied);
  EXPECT_TRUE(k_.sys_unlink(owner, "/tmp/mine").is_ok());
}

// The unlinked file's entry goes to the next create, but its inode stays
// with the description that still has it open.
TEST_F(KernelTest, UnlinkedOpenFileKeepsItsInode) {
  const Pid pid = spawn();
  const int old_fd = k_.sys_open(pid, "/tmp/a", OpenFlags::kCreate).value();
  ASSERT_TRUE(k_.sys_unlink(pid, "/tmp/a").is_ok());
  const int new_fd = k_.sys_open(pid, "/tmp/b", OpenFlags::kCreate).value();
  ASSERT_EQ(k_.sys_write(pid, old_fd, "12345").value_or(0), 5u);
  EXPECT_EQ(k_.sys_stat("/tmp/b").value().size, 0u);
  EXPECT_EQ(k_.sys_read(pid, old_fd, 16).value_or("").size(), 5u);
  EXPECT_EQ(k_.sys_read(pid, new_fd, 16).value_or("?"), "");
  EXPECT_EQ(k_.sys_stat("/tmp/a").code(), Code::kNotFound);
}

TEST_F(KernelTest, UnlinkChecksOwnershipBeforeType) {
  const Pid user = spawn("user");
  k_.processes().lookup(user)->uid = 1000;
  EXPECT_EQ(k_.sys_unlink(user, "/tmp/none").code(), Code::kNotFound);
  EXPECT_EQ(k_.sys_unlink(user, "/tmp").code(), Code::kPermissionDenied);
  ASSERT_TRUE(k_.sys_mkdir(user, "/tmp/own").is_ok());
  const util::Status s = k_.sys_unlink(user, "/tmp/own");
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "is a directory: /tmp/own");
}

TEST_F(KernelTest, MkdirCreatesUnderOwnUid) {
  const Pid pid = spawn();
  k_.processes().lookup(pid)->uid = 1000;
  ASSERT_TRUE(k_.sys_mkdir(pid, "/tmp/workdir").is_ok());
  EXPECT_EQ(k_.sys_stat("/tmp/workdir").value().uid, 1000);
}

TEST_F(KernelTest, MmapSharedRequiresLiveProcessAndSegment) {
  const Pid pid = spawn();
  EXPECT_EQ(k_.sys_mmap_shared(pid, nullptr).code(), Code::kInvalidArgument);
  auto seg = k_.posix_shms().open("/s", true, kPageSize).value();
  ASSERT_TRUE(k_.sys_mmap_shared(pid, seg).is_ok());
  ASSERT_TRUE(k_.sys_exit(pid).is_ok());
  EXPECT_EQ(k_.sys_mmap_shared(pid, seg).code(), Code::kNotFound);
}

TEST_F(KernelTest, SocketpairRoundTripThroughFds) {
  const Pid parent = spawn("svc");
  auto fds = k_.sys_socketpair(parent).value();
  const Pid child = k_.sys_fork(parent).value();
  // Parent speaks on one end, child on the other (shared descriptions).
  ASSERT_TRUE(k_.sys_write(parent, fds.first, "ping").is_ok());
  auto got = k_.sys_read(child, fds.second, 16);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), "ping");
  ASSERT_TRUE(k_.sys_write(child, fds.second, "pong").is_ok());
  EXPECT_EQ(k_.sys_read(parent, fds.first, 16).value(), "pong");
}

TEST_F(KernelTest, SocketpairPropagatesInteraction) {
  const Pid a = spawn("a");
  const Pid b = spawn("b");
  auto fds = k_.sys_socketpair(a).value();
  k_.processes().lookup(b)->fds.insert(
      50, k_.processes().lookup(a)->fds.at(fds.second));
  clock_.advance(sim::Duration::seconds(1));
  k_.monitor().record_interaction(a, clock_.now());
  ASSERT_TRUE(k_.sys_write(a, fds.first, "msg").is_ok());
  ASSERT_TRUE(k_.sys_read(b, 50, 16).is_ok());
  EXPECT_EQ(k_.processes().lookup(b)->interaction_ts, clock_.now());
}

TEST_F(KernelTest, SocketpairEmptyReadWouldBlock) {
  const Pid a = spawn("a");
  auto fds = k_.sys_socketpair(a).value();
  EXPECT_EQ(k_.sys_read(a, fds.first, 8).code(), Code::kWouldBlock);
}

// A read shorter than the message leaves its tail queued for the next
// read, as read(2) on a stream socket does, and keeps later messages whole.
TEST_F(KernelTest, SocketpairShortReadKeepsTail) {
  const Pid a = spawn("a");
  auto fds = k_.sys_socketpair(a).value();
  ASSERT_TRUE(k_.sys_write(a, fds.first, "hello").is_ok());
  ASSERT_TRUE(k_.sys_write(a, fds.first, "world").is_ok());
  EXPECT_EQ(k_.sys_read(a, fds.second, 2).value_or("?"), "he");
  EXPECT_EQ(k_.sys_read(a, fds.second, 16).value_or("?"), "llo");
  EXPECT_EQ(k_.sys_read(a, fds.second, 16).value_or("?"), "world");
  EXPECT_EQ(k_.sys_read(a, fds.second, 16).code(), Code::kWouldBlock);
}

TEST_F(KernelTest, OpenptCreatesSlaveNode) {
  const Pid term = spawn("xterm");
  auto pt = k_.sys_openpt(term);
  ASSERT_TRUE(pt.is_ok());
  EXPECT_EQ(pt.value().second, "/dev/pts/0");
  EXPECT_TRUE(k_.vfs().exists("/dev/pts/0"));
  EXPECT_EQ(k_.sys_stat("/dev/pts/0").value().type, InodeType::kPty);
  // A second allocation gets the next index.
  auto pt2 = k_.sys_openpt(term);
  ASSERT_TRUE(pt2.is_ok());
  EXPECT_EQ(pt2.value().second, "/dev/pts/1");
}

TEST_F(KernelTest, PtyRoundTripThroughFds) {
  const Pid term = spawn("xterm");
  const Pid shell = spawn("bash");
  auto pt = k_.sys_openpt(term).value();
  auto slave_fd = k_.sys_open(shell, pt.second, OpenFlags::kReadWrite);
  ASSERT_TRUE(slave_fd.is_ok());

  ASSERT_TRUE(k_.sys_write(term, pt.first, "ls\n").is_ok());
  auto line = k_.sys_read(shell, slave_fd.value(), 64);
  ASSERT_TRUE(line.is_ok());
  EXPECT_EQ(line.value(), "ls\n");

  ASSERT_TRUE(k_.sys_write(shell, slave_fd.value(), "out").is_ok());
  auto echo = k_.sys_read(term, pt.first, 64);
  ASSERT_TRUE(echo.is_ok());
  EXPECT_EQ(echo.value(), "out");
}

TEST_F(KernelTest, PtyFdsPropagateInteraction) {
  const Pid term = spawn("xterm");
  const Pid shell = spawn("bash");
  auto pt = k_.sys_openpt(term).value();
  auto slave_fd = k_.sys_open(shell, pt.second, OpenFlags::kReadWrite).value();
  clock_.advance(sim::Duration::seconds(1));
  k_.monitor().record_interaction(term, clock_.now());
  ASSERT_TRUE(k_.sys_write(term, pt.first, "arecord\n").is_ok());
  ASSERT_TRUE(k_.sys_read(shell, slave_fd, 64).is_ok());
  EXPECT_EQ(k_.processes().lookup(shell)->interaction_ts, clock_.now());
}

// A short read at a pty end keeps the rest of the line for the next read,
// and each read adopts the device's stamp.
TEST_F(KernelTest, PtyShortReadKeepsTail) {
  const Pid term = spawn("xterm");
  const Pid shell = spawn("bash");
  auto pt = k_.sys_openpt(term).value();
  auto slave_fd = k_.sys_open(shell, pt.second, OpenFlags::kReadWrite).value();
  clock_.advance(sim::Duration::seconds(1));
  k_.monitor().record_interaction(term, clock_.now());
  ASSERT_TRUE(k_.sys_write(term, pt.first, "arecord\n").is_ok());
  EXPECT_EQ(k_.sys_read(shell, slave_fd, 3).value_or("?"), "are");
  EXPECT_EQ(k_.processes().lookup(shell)->interaction_ts, clock_.now());
  EXPECT_EQ(k_.sys_read(shell, slave_fd, 64).value_or("?"), "cord\n");
  EXPECT_EQ(k_.sys_read(shell, slave_fd, 64).code(), Code::kWouldBlock);
  EXPECT_EQ(k_.ptys().find(0)->recv_adoptions(), 2u);
}

TEST_F(KernelTest, PrivateMappingIsSnapshotAndUnarmed) {
  const Pid a = spawn("a");
  const Pid b = spawn("b");
  auto seg = k_.posix_shms().open("/s", true, kPageSize).value();
  auto shared = k_.sys_mmap_shared(a, seg).value();
  auto priv = k_.sys_mmap_private(b, seg).value();
  auto* ta = k_.processes().lookup(a);
  auto* tb = k_.processes().lookup(b);

  // MAP_PRIVATE is never armed (the vm_area is not flagged shared).
  EXPECT_FALSE(priv->armed() && false);  // armed state irrelevant: no engine
  const auto faults_before = k_.page_faults().stats().faults;
  for (int i = 0; i < 100; ++i) priv->write_u64(*tb, 0, i);
  EXPECT_EQ(k_.page_faults().stats().faults, faults_before);

  // Writes through the private mapping do not reach the shared segment.
  priv->write_u64(*tb, 128, 0xAAAA);
  EXPECT_NE(shared->read_u64(*ta, 128), 0xAAAAu);

  // And no interaction propagation happens through it.
  clock_.advance(sim::Duration::seconds(1));
  k_.monitor().record_interaction(b, clock_.now());
  priv->write_u64(*tb, 0, 1);
  EXPECT_TRUE(seg->stamp().is_never());
}

TEST_F(KernelTest, PrivateMappingSeesSnapshotContents) {
  const Pid a = spawn("a");
  auto seg = k_.posix_shms().open("/s", true, kPageSize).value();
  auto shared = k_.sys_mmap_shared(a, seg).value();
  auto* ta = k_.processes().lookup(a);
  shared->write_u64(*ta, 64, 0x1234);
  auto priv = k_.sys_mmap_private(a, seg).value();
  EXPECT_EQ(priv->read_u64(*ta, 64), 0x1234u);
  // Later shared writes are invisible to the snapshot.
  shared->write_u64(*ta, 64, 0x5678);
  EXPECT_EQ(priv->read_u64(*ta, 64), 0x1234u);
}

TEST_F(KernelTest, DeadProcessSyscallsFail) {
  const Pid pid = spawn();
  ASSERT_TRUE(k_.sys_exit(pid).is_ok());
  EXPECT_EQ(k_.sys_open(pid, "/tmp/x", OpenFlags::kCreate).code(),
            Code::kNotFound);
  EXPECT_EQ(k_.sys_pipe(pid).code(), Code::kNotFound);
  EXPECT_EQ(k_.sys_fork(pid).code(), Code::kNotFound);
}

TEST_F(KernelTest, DeviceMediationOnlyWhenMapped) {
  // A sensitive device whose node was never announced to the kernel map
  // (helper not running) is not mediated — the paper's trusted-helper
  // dependency, worth pinning down as a property of the design.
  auto dev = k_.install_device(DeviceClass::kMicrophone, "mic",
                               "/dev/snd/mic9");
  ASSERT_TRUE(dev.is_ok());
  const Pid pid = spawn();
  auto fd = k_.sys_open(pid, "/dev/snd/mic9", OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());  // no map entry → not mediated
  // Once mapped, mediation kicks in.
  k_.devices().map_path("/dev/snd/mic9", dev.value());
  EXPECT_EQ(k_.sys_open(pid, "/dev/snd/mic9", OpenFlags::kRead).code(),
            Code::kOverhaulDenied);
}

// udev renames the directory a microphone sits in: the node moves with it,
// the helper announces the move, and the new path is mediated as the old
// one was.
TEST_F(KernelTest, DirectoryRenameCarriesDeviceMediation) {
  ASSERT_TRUE(k_.start_udev_helper().is_ok());
  const DeviceId mic =
      k_.install_device(DeviceClass::kMicrophone, "mic", "/dev/snd/mic0")
          .value();
  ASSERT_TRUE(k_.vfs().rename("/dev/snd", "/dev/sound").is_ok());
  EXPECT_EQ(k_.devices().device_at("/dev/sound/mic0"), mic);
  EXPECT_FALSE(k_.devices().device_at("/dev/snd/mic0").has_value());

  const Pid pid = spawn();
  clock_.advance(sim::Duration::seconds(5));
  EXPECT_EQ(k_.sys_open(pid, "/dev/snd/mic0", OpenFlags::kRead).code(),
            Code::kNotFound);
  EXPECT_EQ(k_.sys_open(pid, "/dev/sound/mic0", OpenFlags::kRead).code(),
            Code::kOverhaulDenied);
  ASSERT_TRUE(k_.monitor().record_interaction(pid, clock_.now()));
  EXPECT_TRUE(k_.sys_open(pid, "/dev/sound/mic0", OpenFlags::kRead).is_ok());
}

TEST_F(KernelTest, BaselineKernelSkipsMediationEntirely) {
  sim::Clock clock;
  KernelConfig cfg;
  cfg.overhaul_enabled = false;
  Kernel base(clock, cfg);
  auto dev = base.install_device(DeviceClass::kCamera, "cam", "/dev/video0");
  base.devices().map_path("/dev/video0", dev.value());
  const Pid pid = base.sys_spawn(1, "/usr/bin/x", "x").value();
  EXPECT_TRUE(base.sys_open(pid, "/dev/video0", OpenFlags::kRead).is_ok());
}

TEST_F(KernelTest, ExitDropsNetlinkChannels) {
  auto xorg = k_.sys_spawn(1, "/usr/lib/xorg/Xorg", "Xorg").value();
  auto ch = k_.netlink().connect(xorg).value();
  (void)ch;
  ASSERT_TRUE(k_.sys_exit(xorg).is_ok());
  // A fresh channel for a new Xorg still works (no stale state).
  auto xorg2 = k_.sys_spawn(1, "/usr/lib/xorg/Xorg", "Xorg").value();
  EXPECT_TRUE(k_.netlink().connect(xorg2).is_ok());
}

}  // namespace
}  // namespace overhaul::kern

#include "kern/vfs.h"

#include <gtest/gtest.h>

#include <set>

namespace overhaul::kern {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  Vfs vfs_;
  TaskStruct root_task_{.pid = 1, .uid = kRootUid, .comm = "init"};
  TaskStruct user_task_{.pid = 2, .uid = 1000, .comm = "user"};
};

TEST_F(VfsTest, StandardDirectoriesExist) {
  for (const char* d : {"/", "/dev", "/tmp", "/usr", "/usr/bin", "/home"}) {
    auto st = vfs_.stat(d);
    ASSERT_TRUE(st.is_ok()) << d;
    EXPECT_EQ(st.value().type, InodeType::kDirectory) << d;
  }
}

TEST_F(VfsTest, CreateAndStatFile) {
  auto inode = vfs_.open(user_task_, "/tmp/a.txt", OpenFlags::kCreate);
  ASSERT_TRUE(inode.is_ok());
  auto st = vfs_.stat("/tmp/a.txt");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st.value().type, InodeType::kRegular);
  EXPECT_EQ(st.value().uid, 1000);
}

TEST_F(VfsTest, OpenMissingWithoutCreateFails) {
  auto r = vfs_.open(user_task_, "/tmp/missing", OpenFlags::kRead);
  EXPECT_EQ(r.code(), util::Code::kNotFound);
}

TEST_F(VfsTest, CreateInMissingDirectoryFails) {
  auto r = vfs_.open(user_task_, "/nosuch/a", OpenFlags::kCreate);
  EXPECT_EQ(r.code(), util::Code::kNotFound);
}

TEST_F(VfsTest, RelativePathRejected) {
  EXPECT_EQ(vfs_.mkdir("relative/dir", 0).code(),
            util::Code::kInvalidArgument);
}

TEST_F(VfsTest, MkdirDuplicateFails) {
  ASSERT_TRUE(vfs_.mkdir("/tmp/d", 0).is_ok());
  EXPECT_EQ(vfs_.mkdir("/tmp/d", 0).code(), util::Code::kExists);
}

TEST_F(VfsTest, DacOwnerPrivateFile) {
  // user creates a private file; another uid cannot open it.
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/secret", OpenFlags::kCreate).is_ok());
  TaskStruct other{.pid = 3, .uid = 2000};
  EXPECT_EQ(vfs_.open(other, "/tmp/secret", OpenFlags::kRead).code(),
            util::Code::kPermissionDenied);
  // Root bypasses DAC.
  EXPECT_TRUE(vfs_.open(root_task_, "/tmp/secret", OpenFlags::kRead).is_ok());
}

TEST_F(VfsTest, DacWorldReadOnlyBlocksWrite) {
  ASSERT_TRUE(
      vfs_.mknod("/dev/ro", 1, kRootUid, Mode{true, true, true, false}).is_ok());
  EXPECT_TRUE(vfs_.open(user_task_, "/dev/ro", OpenFlags::kRead).is_ok());
  EXPECT_EQ(vfs_.open(user_task_, "/dev/ro", OpenFlags::kWrite).code(),
            util::Code::kPermissionDenied);
}

TEST_F(VfsTest, OpenDirectoryFails) {
  EXPECT_EQ(vfs_.open(user_task_, "/tmp", OpenFlags::kRead).code(),
            util::Code::kInvalidArgument);
}

TEST_F(VfsTest, UnlinkRemoves) {
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/x", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.unlink("/tmp/x").is_ok());
  EXPECT_FALSE(vfs_.exists("/tmp/x"));
  EXPECT_EQ(vfs_.unlink("/tmp/x").code(), util::Code::kNotFound);
}

TEST_F(VfsTest, UnlinkDirectoryFails) {
  EXPECT_EQ(vfs_.unlink("/tmp").code(), util::Code::kInvalidArgument);
}

TEST_F(VfsTest, RenameMovesInode) {
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/a", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.rename("/tmp/a", "/tmp/b").is_ok());
  EXPECT_FALSE(vfs_.exists("/tmp/a"));
  EXPECT_TRUE(vfs_.exists("/tmp/b"));
}

TEST_F(VfsTest, RenameOntoExistingFails) {
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/a", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/b", OpenFlags::kCreate).is_ok());
  EXPECT_EQ(vfs_.rename("/tmp/a", "/tmp/b").code(), util::Code::kExists);
}

TEST_F(VfsTest, ListOneLevel) {
  ASSERT_TRUE(vfs_.mkdir("/tmp/sub", 0).is_ok());
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/f1", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/sub/f2", OpenFlags::kCreate).is_ok());
  const auto entries = vfs_.list("/tmp");
  EXPECT_NE(std::find(entries.begin(), entries.end(), "/tmp/f1"), entries.end());
  EXPECT_NE(std::find(entries.begin(), entries.end(), "/tmp/sub"), entries.end());
  EXPECT_EQ(std::find(entries.begin(), entries.end(), "/tmp/sub/f2"),
            entries.end());
}

TEST_F(VfsTest, ListAndDeviceNodesAreSorted) {
  // Unlinks between the creates hand recycled entries to later names, so
  // the table's own order is not the path order.
  for (const char* p : {"/tmp/m", "/tmp/z", "/tmp/a"})
    ASSERT_TRUE(vfs_.open(user_task_, p, OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.unlink("/tmp/z").is_ok());
  ASSERT_TRUE(vfs_.unlink("/tmp/a").is_ok());
  for (const char* p : {"/tmp/b", "/tmp/y", "/tmp/c"})
    ASSERT_TRUE(vfs_.open(user_task_, p, OpenFlags::kCreate).is_ok());
  EXPECT_EQ(vfs_.list("/tmp"),
            (std::vector<std::string>{"/tmp/b", "/tmp/c", "/tmp/m", "/tmp/y"}));

  for (const char* p : {"/dev/zz", "/dev/aa", "/dev/mm"})
    ASSERT_TRUE(vfs_.mknod(p, 1, kRootUid).is_ok());
  ASSERT_TRUE(vfs_.unlink("/dev/aa").is_ok());
  ASSERT_TRUE(vfs_.mknod("/dev/bb", 2, kRootUid).is_ok());
  std::vector<std::string> paths;
  for (const auto& [path, id] : vfs_.device_nodes()) paths.push_back(path);
  EXPECT_EQ(paths,
            (std::vector<std::string>{"/dev/bb", "/dev/mm", "/dev/zz"}));
}

TEST_F(VfsTest, ListOfRootSkipsRootItself) {
  const auto entries = vfs_.list("/");
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
  EXPECT_EQ(std::find(entries.begin(), entries.end(), "/"), entries.end());
  EXPECT_NE(std::find(entries.begin(), entries.end(), "/tmp"), entries.end());
  EXPECT_EQ(std::find(entries.begin(), entries.end(), "/usr/bin"),
            entries.end());
}

TEST_F(VfsTest, DirectoryRenameMovesItsSubtree) {
  ASSERT_TRUE(vfs_.mkdir("/tmp/d", 0).is_ok());
  ASSERT_TRUE(vfs_.mkdir("/tmp/d/sub", 0).is_ok());
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/d/f", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(
      vfs_.open(user_task_, "/tmp/d/sub/g", OpenFlags::kCreate).is_ok());
  // A sibling whose name merely starts with the directory's stays put.
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/dx", OpenFlags::kCreate).is_ok());
  const auto ino_f = vfs_.stat("/tmp/d/f").value().ino;
  const auto count = vfs_.entry_count();

  ASSERT_TRUE(vfs_.rename("/tmp/d", "/tmp/e").is_ok());
  for (const char* gone : {"/tmp/d", "/tmp/d/f", "/tmp/d/sub", "/tmp/d/sub/g"})
    EXPECT_FALSE(vfs_.exists(gone)) << gone;
  for (const char* moved : {"/tmp/e", "/tmp/e/f", "/tmp/e/sub", "/tmp/e/sub/g"})
    EXPECT_TRUE(vfs_.exists(moved)) << moved;
  EXPECT_TRUE(vfs_.exists("/tmp/dx"));
  EXPECT_EQ(vfs_.stat("/tmp/e/f").value().ino, ino_f);
  EXPECT_EQ(vfs_.entry_count(), count);
  EXPECT_TRUE(vfs_.list("/tmp/d").empty());
  EXPECT_EQ(vfs_.list("/tmp/e"),
            (std::vector<std::string>{"/tmp/e/f", "/tmp/e/sub"}));
  // The moved tree works as a tree: create under it, rename it back.
  EXPECT_TRUE(
      vfs_.open(user_task_, "/tmp/e/sub/h", OpenFlags::kCreate).is_ok());
  ASSERT_TRUE(vfs_.rename("/tmp/e", "/tmp/d").is_ok());
  EXPECT_EQ(vfs_.list("/tmp/d/sub"),
            (std::vector<std::string>{"/tmp/d/sub/g", "/tmp/d/sub/h"}));
}

TEST_F(VfsTest, RenameIntoOwnSubtreeFails) {
  ASSERT_TRUE(vfs_.mkdir("/tmp/d", 0).is_ok());
  ASSERT_TRUE(vfs_.mkdir("/tmp/d/sub", 0).is_ok());
  EXPECT_EQ(vfs_.rename("/tmp/d", "/tmp/d/e").code(),
            util::Code::kInvalidArgument);
  EXPECT_EQ(vfs_.rename("/tmp/d", "/tmp/d/sub/e").code(),
            util::Code::kInvalidArgument);
  EXPECT_EQ(vfs_.rename("/", "/tmp/root").code(),
            util::Code::kInvalidArgument);
  EXPECT_EQ(vfs_.rename("/tmp/d", "/tmp/d").code(), util::Code::kExists);
  EXPECT_TRUE(vfs_.exists("/tmp/d/sub"));
  EXPECT_FALSE(vfs_.exists("/tmp/d/e"));
}

// Device-tree notifications feed the udev helper (§IV-B).
class RecordingObserver final : public DevTreeObserver {
 public:
  std::vector<std::pair<std::string, bool>> events;  // path, added
  void on_node_added(const std::string& path, DeviceId) override {
    events.emplace_back(path, true);
  }
  void on_node_removed(const std::string& path, DeviceId) override {
    events.emplace_back(path, false);
  }
};

TEST_F(VfsTest, DeviceNodeNotifications) {
  RecordingObserver obs;
  vfs_.subscribe_devtree(&obs);
  ASSERT_TRUE(vfs_.mknod("/dev/video9", 7, kRootUid).is_ok());
  ASSERT_TRUE(vfs_.rename("/dev/video9", "/dev/video0").is_ok());
  ASSERT_TRUE(vfs_.unlink("/dev/video0").is_ok());
  ASSERT_EQ(obs.events.size(), 4u);
  EXPECT_EQ(obs.events[0], (std::pair<std::string, bool>{"/dev/video9", true}));
  EXPECT_EQ(obs.events[1], (std::pair<std::string, bool>{"/dev/video9", false}));
  EXPECT_EQ(obs.events[2], (std::pair<std::string, bool>{"/dev/video0", true}));
  EXPECT_EQ(obs.events[3], (std::pair<std::string, bool>{"/dev/video0", false}));
}

TEST_F(VfsTest, DirectoryRenameAnnouncesEachDeviceNode) {
  ASSERT_TRUE(vfs_.mkdir("/dev/cams", kRootUid).is_ok());
  ASSERT_TRUE(vfs_.mknod("/dev/cams/b", 2, kRootUid).is_ok());
  ASSERT_TRUE(vfs_.mknod("/dev/cams/a", 1, kRootUid).is_ok());
  ASSERT_TRUE(
      vfs_.open(root_task_, "/dev/cams/notes", OpenFlags::kCreate).is_ok());
  RecordingObserver obs;
  vfs_.subscribe_devtree(&obs);
  ASSERT_TRUE(vfs_.rename("/dev/cams", "/dev/video").is_ok());
  using Event = std::pair<std::string, bool>;
  EXPECT_EQ(obs.events, (std::vector<Event>{{"/dev/cams/a", false},
                                            {"/dev/video/a", true},
                                            {"/dev/cams/b", false},
                                            {"/dev/video/b", true}}));
}

TEST_F(VfsTest, DeviceNodesEnumerated) {
  ASSERT_TRUE(vfs_.mknod("/dev/miau", 3, kRootUid).is_ok());
  const auto nodes = vfs_.device_nodes();
  bool found = false;
  for (const auto& [path, id] : nodes) {
    if (path == "/dev/miau") {
      found = true;
      EXPECT_EQ(id, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(VfsTest, FifoNodeCarriesKey) {
  ASSERT_TRUE(vfs_.mkfifo("/tmp/fifo", 99, 1000).is_ok());
  auto st = vfs_.stat("/tmp/fifo");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st.value().type, InodeType::kFifo);
}

TEST_F(VfsTest, EntryCountGrows) {
  const auto before = vfs_.entry_count();
  ASSERT_TRUE(vfs_.open(user_task_, "/tmp/new", OpenFlags::kCreate).is_ok());
  EXPECT_EQ(vfs_.entry_count(), before + 1);
}

// An unlinked entry keeps its inode for the next create, unless an open
// description still holds it.
TEST_F(VfsTest, UnlinkedEntryRecyclesItsInodeOnlyOnceNothingHoldsIt) {
  auto held = vfs_.open(user_task_, "/tmp/a", OpenFlags::kCreate).value();
  ASSERT_TRUE(vfs_.unlink("/tmp/a").is_ok());
  auto b = vfs_.open(user_task_, "/tmp/b", OpenFlags::kCreate).value();
  EXPECT_NE(b.get(), held.get());
  held->size += 5;  // a write through the unlinked file's description
  EXPECT_EQ(vfs_.stat("/tmp/b").value().size, 0u);
  EXPECT_EQ(held->size, 5u);

  const Inode* recycled = b.get();
  const auto old_ino = b->ino;
  b.reset();
  ASSERT_TRUE(vfs_.unlink("/tmp/b").is_ok());
  ASSERT_TRUE(vfs_.mkfifo("/tmp/c", 7, 1000).is_ok());
  auto c = vfs_.open(user_task_, "/tmp/c", OpenFlags::kRead).value();
  EXPECT_EQ(c.get(), recycled);
  EXPECT_GT(c->ino, old_ino);
  EXPECT_EQ(c->type, InodeType::kFifo);
  EXPECT_EQ(c->fifo_key, 7u);
  EXPECT_EQ(c->size, 0u);
}

TEST_F(VfsTest, CreateUnlinkCyclesKeepCountAndStatExact) {
  const std::size_t base = vfs_.entry_count();
  std::set<std::string> live;
  std::set<std::uint64_t> inos;
  std::uint32_t x = 12345;
  for (int cycle = 0; cycle < 1'000; ++cycle) {
    x = x * 1'103'515'245u + 12'345u;
    const std::string path = "/tmp/f" + std::to_string((x >> 16) % 97);
    if (live.count(path) > 0) {
      ASSERT_TRUE(vfs_.unlink(path).is_ok()) << path;
      live.erase(path);
    } else {
      auto inode = vfs_.open(user_task_, path, OpenFlags::kCreate);
      ASSERT_TRUE(inode.is_ok()) << path;
      EXPECT_TRUE(inos.insert(inode.value()->ino).second) << "reused ino";
      live.insert(path);
    }
    ASSERT_EQ(vfs_.entry_count(), base + live.size()) << "cycle " << cycle;
  }
  for (int n = 0; n < 97; ++n) {
    const std::string path = "/tmp/f" + std::to_string(n);
    const bool expected = live.count(path) > 0;
    EXPECT_EQ(vfs_.exists(path), expected) << path;
    EXPECT_EQ(vfs_.stat(path).is_ok(), expected) << path;
  }
  EXPECT_EQ(vfs_.list("/tmp"),
            std::vector<std::string>(live.begin(), live.end()));
}

}  // namespace
}  // namespace overhaul::kern

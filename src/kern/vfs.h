// Vfs: a small virtual filesystem with device nodes.
//
// Provides the interposition point the paper uses for hardware mediation:
// "it suffices on Linux to monitor open system call invocations on device
// nodes exposed in the filesystem" (§IV-B). Also carries the Bonnie++-style
// Table-I filesystem benchmark (create / stat / delete of many files), so
// create, stat and unlink are real operations on a name table — not stubs.
//
// The name table is keyed by full path, like Linux's dcache hash (DESIGN.md
// §10 "Hashed dentry table"): a flat open-addressed table of slots that
// index a vector of entries, so a lookup is one hash, a probe and one string
// compare. An unlinked entry keeps its path buffer and its inode for the next
// create, unless an open description still holds that inode; so a warm
// create, stat or unlink allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kern/devices.h"
#include "kern/task.h"
#include "util/status.h"

namespace overhaul::kern {

enum class InodeType : std::uint8_t { kRegular, kDirectory, kDevice, kFifo, kPty };

// Simplified UNIX permissions: read/write for owner and for everyone else.
struct Mode {
  bool owner_read = true;
  bool owner_write = true;
  bool other_read = true;
  bool other_write = false;

  static constexpr Mode world_rw() { return {true, true, true, true}; }
  static constexpr Mode private_rw() { return {true, true, false, false}; }
};

struct Inode {
  std::uint64_t ino = 0;
  InodeType type = InodeType::kRegular;
  Uid uid = 0;
  Mode mode;
  DeviceId device = kNoDevice;  // for kDevice
  std::uint32_t fifo_key = 0;   // for kFifo: key into the IPC fifo namespace
  int pty_index = -1;           // for kPty: index into the pty driver
  std::uint64_t size = 0;       // for kRegular
  std::uint64_t nlink = 1;
};

struct StatBuf {
  std::uint64_t ino = 0;
  InodeType type = InodeType::kRegular;
  Uid uid = 0;
  std::uint64_t size = 0;
};

enum class OpenFlags : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
  kCreate = 4 | 2,
};
[[nodiscard]] constexpr bool wants_write(OpenFlags f) noexcept {
  return (static_cast<int>(f) & 2) != 0;
}
[[nodiscard]] constexpr bool wants_read(OpenFlags f) noexcept {
  return (static_cast<int>(f) & 1) != 0;
}
[[nodiscard]] constexpr bool wants_create(OpenFlags f) noexcept {
  return (static_cast<int>(f) & 4) != 0;
}

// Descriptor payload for a plain vfs open (regular file or device node).
class VfsFile final : public FileDescription {
 public:
  VfsFile(std::shared_ptr<Inode> inode, std::string path)
      : inode_(std::move(inode)), path_(std::move(path)) {}
  [[nodiscard]] std::string describe() const override { return "file:" + path_; }
  // A regular file grows by what is written; a device node is a sink.
  util::Result<std::size_t> file_write(TaskStruct& /*task*/,
                                       std::string_view data) override {
    if (inode_->type == InodeType::kRegular) inode_->size += data.size();
    return data.size();
  }
  // A device yields max_bytes zero samples; a regular file up to its size.
  util::Result<std::string> file_read(TaskStruct& /*task*/,
                                      std::size_t max_bytes) override {
    if (inode_->type == InodeType::kDevice) return std::string(max_bytes, '\0');
    return std::string(std::min<std::uint64_t>(max_bytes, inode_->size), '\0');
  }
  [[nodiscard]] const std::shared_ptr<Inode>& inode() const { return inode_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::shared_ptr<Inode> inode_;
  std::string path_;
};

// Observer for device-tree changes; the trusted udev helper subscribes so it
// can keep the kernel's sensitive-path map current (§IV-B). A callback must
// not change the Vfs that calls it.
class DevTreeObserver {
 public:
  virtual ~DevTreeObserver() = default;
  virtual void on_node_added(const std::string& path, DeviceId id) = 0;
  virtual void on_node_removed(const std::string& path, DeviceId id) = 0;
};

class Vfs {
 public:
  Vfs();

  // --- namespace operations -------------------------------------------------
  util::Status mkdir(std::string_view path, Uid uid, Mode mode = {});
  util::Status mknod(std::string_view path, DeviceId device, Uid uid,
                     Mode mode = Mode::world_rw());
  util::Status mkfifo(std::string_view path, std::uint32_t fifo_key, Uid uid,
                      Mode mode = Mode::world_rw());
  // Slave node for a pseudo-terminal (conventionally /dev/pts/<index>).
  util::Status mkpty(std::string_view path, int pty_index, Uid uid,
                     Mode mode = Mode::world_rw());
  // Removes a non-directory entry; a `caller` other than root must own it.
  util::Status unlink(std::string_view path, Uid caller = kRootUid);
  // Moves `from`, and everything under it when it is a directory, to `to`.
  util::Status rename(std::string_view from, std::string_view to);

  // --- file operations --------------------------------------------------------
  // Resolve + DAC-check an open. Device/Overhaul mediation happens in the
  // Kernel facade on top of this. Creates the file when kCreate is set.
  util::Result<std::shared_ptr<Inode>> open(const TaskStruct& task,
                                            std::string_view path,
                                            OpenFlags flags);
  util::Result<StatBuf> stat(std::string_view path) const;

  [[nodiscard]] bool exists(std::string_view path) const {
    return probe(path).found;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept { return live_; }
  // Paths directly under `dir` (one level), in sorted order.
  [[nodiscard]] std::vector<std::string> list(std::string_view dir) const;

  // Every device node currently in the tree (path, device id), sorted by
  // path. Used for the udev coldplug pass at helper startup.
  [[nodiscard]] std::vector<std::pair<std::string, DeviceId>> device_nodes()
      const;

  void subscribe_devtree(DevTreeObserver* obs) { observers_.push_back(obs); }

 private:
  // A name. While unlinked it sits on the free list and keeps `path`'s buffer
  // and `inode` for the next create; open descriptions may share `inode`.
  struct Entry {
    std::string path;
    std::shared_ptr<Inode> inode;
    std::uint32_t next_free = 0;  // free-list link while unlinked
    bool live = false;
  };
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t entry_plus1 = 0;  // 0 = empty slot
  };
  // Where `path` sits in slots_, or the empty slot it would take.
  struct Probe {
    std::size_t slot;
    std::uint32_t hash;
    bool found;
  };

  [[nodiscard]] Probe probe(std::string_view path) const;
  [[nodiscard]] const Entry& entry_at(std::size_t slot) const {
    return entries_[slots_[slot].entry_plus1 - 1];
  }
  // Names `path` (whose probe `at` missed) with a fresh inode.
  Entry& insert(std::string_view path, const Probe& at, InodeType type,
                Uid uid, Mode mode);
  // The checks every mk* shares, then insert().
  util::Result<Entry*> make_node(std::string_view path, InodeType type,
                                 Uid uid, Mode mode);
  // Empties slots_[slot] (backward-shift deletion: no tombstones).
  void erase_slot(std::size_t slot);
  void put_slot(std::uint32_t hash, std::uint32_t entry);
  void grow();

  [[nodiscard]] static std::string_view parent_of(std::string_view path);
  [[nodiscard]] util::Status check_parent(std::string_view path) const;
  [[nodiscard]] static bool dac_allows(const TaskStruct& task,
                                       const Inode& inode, OpenFlags flags);
  void notify_added(const std::string& path, DeviceId id);
  void notify_removed(const std::string& path, DeviceId id);

  std::vector<Entry> entries_;
  std::vector<Slot> slots_;  // power-of-two, linear probing, <= 7/10 load
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::uint32_t free_head_ = 0;  // entry index + 1; 0 = none
  std::vector<DevTreeObserver*> observers_;
  std::uint64_t next_ino_ = 1;
};

}  // namespace overhaul::kern

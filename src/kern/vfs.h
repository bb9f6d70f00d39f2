// Vfs: a small virtual filesystem with device nodes.
//
// Provides the interposition point the paper uses for hardware mediation:
// "it suffices on Linux to monitor open system call invocations on device
// nodes exposed in the filesystem" (§IV-B). Also carries the Bonnie++-style
// Table-I filesystem benchmark (create / stat / delete of many files), so
// create, stat and unlink are real operations with per-directory entry
// bookkeeping — not stubs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
// can keep the kernel's sensitive-path map current (§IV-B).
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
  util::Status mkdir(const std::string& path, Uid uid, Mode mode = {});
  util::Status mknod(const std::string& path, DeviceId device, Uid uid,
                     Mode mode = Mode::world_rw());
  util::Status mkfifo(const std::string& path, std::uint32_t fifo_key, Uid uid,
                      Mode mode = Mode::world_rw());
  // Slave node for a pseudo-terminal (conventionally /dev/pts/<index>).
  util::Status mkpty(const std::string& path, int pty_index, Uid uid,
                     Mode mode = Mode::world_rw());
  util::Status unlink(const std::string& path);
  util::Status rename(const std::string& from, const std::string& to);

  // --- file operations --------------------------------------------------------
  // Resolve + DAC-check an open. Device/Overhaul mediation happens in the
  // Kernel facade on top of this. Creates the file when kCreate is set.
  util::Result<std::shared_ptr<Inode>> open(const TaskStruct& task,
                                            const std::string& path,
                                            OpenFlags flags);
  util::Result<StatBuf> stat(const std::string& path) const;

  [[nodiscard]] bool exists(const std::string& path) const {
    return inodes_.count(path) > 0;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return inodes_.size();
  }
  // Paths directly under `dir` (one level).
  [[nodiscard]] std::vector<std::string> list(const std::string& dir) const;

  // Every device node currently in the tree (path, device id). Used for the
  // udev coldplug pass at helper startup.
  [[nodiscard]] std::vector<std::pair<std::string, DeviceId>> device_nodes()
      const;

  void subscribe_devtree(DevTreeObserver* obs) { observers_.push_back(obs); }

 private:
  [[nodiscard]] static std::string parent_of(const std::string& path);
  [[nodiscard]] util::Status check_parent(const std::string& path) const;
  [[nodiscard]] static bool dac_allows(const TaskStruct& task,
                                       const Inode& inode, OpenFlags flags);
  void notify_added(const std::string& path, DeviceId id);
  void notify_removed(const std::string& path, DeviceId id);

  std::map<std::string, std::shared_ptr<Inode>> inodes_;
  std::vector<DevTreeObserver*> observers_;
  std::uint64_t next_ino_ = 1;
};

}  // namespace overhaul::kern

#include "kern/vfs.h"

#include <algorithm>
#include <cstring>

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

namespace {

constexpr std::size_t kInitialSlots = 64;
constexpr std::size_t kInitialEntries = 32;  // a booted seat names about 20

// Hashes every byte, eight at a time. Files in one directory share a long
// prefix and often a suffix, so a hash of the ends alone would chain
// siblings whose names differ in the middle.
std::uint32_t hash_path(std::string_view s) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t h = s.size() * kMul;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * kMul;
  }
  if (i < s.size()) {
    std::uint64_t w = 0;
    if (s.size() >= 8) {
      std::memcpy(&w, s.data() + s.size() - 8, 8);  // overlaps the last word
    } else {
      for (; i < s.size(); ++i)
        w |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
             << (i * 8);
    }
    h = (h ^ w) * kMul;
  }
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h);
}

// True when `path` lies strictly below directory `dir`.
bool is_under(std::string_view path, std::string_view dir) {
  if (dir == "/") return path.size() > 1 && path.front() == '/';
  return path.size() > dir.size() && path.starts_with(dir) &&
         path[dir.size()] == '/';
}

}  // namespace

Vfs::Vfs() : slots_(kInitialSlots), mask_(kInitialSlots - 1) {
  entries_.reserve(kInitialEntries);
  insert("/", probe("/"), InodeType::kDirectory, kRootUid, Mode{});
  // Standard top-level directories every scenario expects.
  for (const char* dir : {"/dev", "/tmp", "/usr", "/usr/bin", "/usr/lib",
                          "/home", "/proc", "/sbin"}) {
    (void)mkdir(dir, kRootUid, Mode::world_rw());
  }
}

Vfs::Probe Vfs::probe(std::string_view path) const {
  const std::uint32_t h = hash_path(path);
  std::size_t i = h & mask_;
  while (slots_[i].entry_plus1 != 0) {
    if (slots_[i].hash == h && entry_at(i).path == path) return {i, h, true};
    i = (i + 1) & mask_;
  }
  return {i, h, false};
}

Vfs::Entry& Vfs::insert(std::string_view path, const Probe& at,
                        InodeType type, Uid uid, Mode mode) {
  std::uint32_t idx;
  if (free_head_ != 0) {
    idx = free_head_ - 1;
    free_head_ = entries_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[idx];
  e.path.assign(path);
  e.live = true;
  // Reuse the unlinked file's inode unless a description still holds it.
  if (e.inode == nullptr || e.inode.use_count() > 1)
    e.inode = std::make_shared<Inode>();
  *e.inode = Inode{.ino = next_ino_++, .type = type, .uid = uid, .mode = mode};
  slots_[at.slot] = {at.hash, idx + 1};
  if (++live_ * 10 >= slots_.size() * 7) grow();
  return e;
}

Result<Vfs::Entry*> Vfs::make_node(std::string_view path, InodeType type,
                                   Uid uid, Mode mode) {
  if (auto s = check_parent(path); !s.is_ok()) return s;
  const Probe at = probe(path);
  if (at.found) return Status(Code::kExists, std::string(path));
  return &insert(path, at, type, uid, mode);
}

void Vfs::put_slot(std::uint32_t hash, std::uint32_t entry) {
  std::size_t i = hash & mask_;
  while (slots_[i].entry_plus1 != 0) i = (i + 1) & mask_;
  slots_[i] = {hash, entry + 1};
}

void Vfs::erase_slot(std::size_t slot) {
  // Walk the rest of the probe run and move back into the hole each member
  // whose home slot is not after it, so no lookup ever meets a gap.
  std::size_t hole = slot;
  for (std::size_t i = (slot + 1) & mask_; slots_[i].entry_plus1 != 0;
       i = (i + 1) & mask_) {
    const std::size_t home = slots_[i].hash & mask_;
    if (((i - home) & mask_) >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
}

void Vfs::grow() {
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old)
    if (slot.entry_plus1 != 0) put_slot(slot.hash, slot.entry_plus1 - 1);
}

std::string_view Vfs::parent_of(std::string_view path) {
  const auto pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

Status Vfs::check_parent(std::string_view path) const {
  if (path.empty() || path.front() != '/')
    return Status(Code::kInvalidArgument,
                  "path must be absolute: " + std::string(path));
  const Probe parent = probe(parent_of(path));
  if (!parent.found ||
      entry_at(parent.slot).inode->type != InodeType::kDirectory)
    return Status(Code::kNotFound,
                  "no such directory: " + std::string(parent_of(path)));
  return Status::ok();
}

Status Vfs::mkdir(std::string_view path, Uid uid, Mode mode) {
  return make_node(path, InodeType::kDirectory, uid, mode).status();
}

Status Vfs::mknod(std::string_view path, DeviceId device, Uid uid, Mode mode) {
  auto node = make_node(path, InodeType::kDevice, uid, mode);
  if (!node.is_ok()) return node.status();
  node.value()->inode->device = device;
  notify_added(node.value()->path, device);
  return Status::ok();
}

Status Vfs::mkfifo(std::string_view path, std::uint32_t fifo_key, Uid uid,
                   Mode mode) {
  auto node = make_node(path, InodeType::kFifo, uid, mode);
  if (node.is_ok()) node.value()->inode->fifo_key = fifo_key;
  return node.status();
}

Status Vfs::mkpty(std::string_view path, int pty_index, Uid uid, Mode mode) {
  auto node = make_node(path, InodeType::kPty, uid, mode);
  if (node.is_ok()) node.value()->inode->pty_index = pty_index;
  return node.status();
}

Status Vfs::unlink(std::string_view path, Uid caller) {
  const Probe at = probe(path);
  if (!at.found) return Status(Code::kNotFound, std::string(path));
  const std::uint32_t idx = slots_[at.slot].entry_plus1 - 1;
  Entry& e = entries_[idx];
  if (caller != kRootUid && caller != e.inode->uid)
    return Status(Code::kPermissionDenied, std::string(path));
  if (e.inode->type == InodeType::kDirectory)
    return Status(Code::kInvalidArgument,
                  "is a directory: " + std::string(path));
  erase_slot(at.slot);
  --live_;
  if (e.inode->type == InodeType::kDevice)
    notify_removed(e.path, e.inode->device);
  e.live = false;
  e.next_free = free_head_;
  free_head_ = idx + 1;
  return Status::ok();
}

Status Vfs::rename(std::string_view from, std::string_view to) {
  const Probe src = probe(from);
  if (!src.found) return Status(Code::kNotFound, std::string(from));
  if (auto s = check_parent(to); !s.is_ok()) return s;
  if (is_under(to, from))
    return Status(Code::kInvalidArgument,
                  "cannot move " + std::string(from) + " into itself");
  if (probe(to).found) return Status(Code::kExists, std::string(to));

  // `from` and, for a directory, every entry below it, in path order so the
  // device-tree announcements come out the same on every run.
  std::vector<std::uint32_t> moved{slots_[src.slot].entry_plus1 - 1};
  if (entry_at(src.slot).inode->type == InodeType::kDirectory) {
    for (std::uint32_t i = 0; i < entries_.size(); ++i)
      if (entries_[i].live && is_under(entries_[i].path, from))
        moved.push_back(i);
    std::sort(moved.begin() + 1, moved.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return entries_[a].path < entries_[b].path;
              });
  }
  // Unhook every old name before adding a new one: `to` is free, and so is
  // everything below it, since a live entry's parent is a live directory.
  for (const std::uint32_t i : moved) erase_slot(probe(entries_[i].path).slot);
  for (const std::uint32_t i : moved) {
    Entry& e = entries_[i];
    const std::string old_path = e.path;
    e.path.replace(0, from.size(), to);
    put_slot(hash_path(e.path), i);
    if (e.inode->type == InodeType::kDevice) {
      // A rename is a remove + add from the device-map perspective; this is
      // exactly the udev dynamic-naming churn the trusted helper exists for.
      notify_removed(old_path, e.inode->device);
      notify_added(e.path, e.inode->device);
    }
  }
  return Status::ok();
}

bool Vfs::dac_allows(const TaskStruct& task, const Inode& inode,
                     OpenFlags flags) {
  if (task.uid == kRootUid) return true;
  const bool owner = task.uid == inode.uid;
  if (wants_read(flags) &&
      !(owner ? inode.mode.owner_read : inode.mode.other_read))
    return false;
  if (wants_write(flags) &&
      !(owner ? inode.mode.owner_write : inode.mode.other_write))
    return false;
  return true;
}

Result<std::shared_ptr<Inode>> Vfs::open(const TaskStruct& task,
                                         std::string_view path,
                                         OpenFlags flags) {
  const Probe at = probe(path);
  const Entry* e = nullptr;
  if (at.found) {
    e = &entry_at(at.slot);
  } else {
    if (!wants_create(flags))
      return Status(Code::kNotFound, std::string(path));
    if (auto s = check_parent(path); !s.is_ok()) return s;
    e = &insert(path, at, InodeType::kRegular, task.uid, Mode::private_rw());
  }
  const std::shared_ptr<Inode>& inode = e->inode;
  if (inode->type == InodeType::kDirectory)
    return Status(Code::kInvalidArgument,
                  "is a directory: " + std::string(path));
  if (!dac_allows(task, *inode, flags))
    return Status(Code::kPermissionDenied, std::string(path));
  return inode;
}

Result<StatBuf> Vfs::stat(std::string_view path) const {
  const Probe at = probe(path);
  if (!at.found) return Status(Code::kNotFound, std::string(path));
  const Inode& n = *entry_at(at.slot).inode;
  return StatBuf{n.ino, n.type, n.uid, n.size};
}

std::vector<std::string> Vfs::list(std::string_view dir) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.live && e.path != dir && parent_of(e.path) == dir)
      out.push_back(e.path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, DeviceId>> Vfs::device_nodes() const {
  std::vector<std::pair<std::string, DeviceId>> out;
  for (const Entry& e : entries_) {
    if (e.live && e.inode->type == InodeType::kDevice)
      out.emplace_back(e.path, e.inode->device);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Vfs::notify_added(const std::string& path, DeviceId id) {
  for (auto* obs : observers_) obs->on_node_added(path, id);
}

void Vfs::notify_removed(const std::string& path, DeviceId id) {
  for (auto* obs : observers_) obs->on_node_removed(path, id);
}

}  // namespace overhaul::kern

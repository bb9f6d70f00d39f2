#include "kern/ipc/shared_memory.h"

namespace overhaul::kern {

using util::Code;
using util::Result;
using util::Status;

Status ShmMapping::write(TaskStruct& task, std::size_t offset,
                         const void* src, std::size_t len) {
  if (offset + len > segment_->size())
    return Status(Code::kInvalidArgument, "shm write out of range");
  if (engine_ != nullptr) engine_->on_access(*this, task, /*is_write=*/true);
  std::memcpy(segment_->data() + offset, src, len);
  return Status::ok();
}

Status ShmMapping::read(TaskStruct& task, std::size_t offset, void* dst,
                        std::size_t len) {
  if (offset + len > segment_->size())
    return Status(Code::kInvalidArgument, "shm read out of range");
  if (engine_ != nullptr) engine_->on_access(*this, task, /*is_write=*/false);
  std::memcpy(dst, segment_->data() + offset, len);
  return Status::ok();
}

Result<std::shared_ptr<ShmSegment>> PosixShmNamespace::open(
    const std::string& name, bool create, std::size_t bytes) {
  const auto it = segments_.find(name);
  if (it != segments_.end()) return it->second;
  if (!create) return Status(Code::kNotFound, "shm_open: " + name);
  if (name.empty() || name.front() != '/')
    return Status(Code::kInvalidArgument, "shm name must start with '/'");
  if (bytes == 0)
    return Status(Code::kInvalidArgument, "shm_open: zero size");
  auto seg = std::make_shared<ShmSegment>(policy_, bytes);
  segments_.emplace(name, seg);
  return seg;
}

Status PosixShmNamespace::unlink(const std::string& name) {
  return segments_.erase(name) > 0 ? Status::ok()
                                   : Status(Code::kNotFound, name);
}

}  // namespace overhaul::kern

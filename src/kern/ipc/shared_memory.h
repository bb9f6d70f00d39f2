// Shared memory IPC: POSIX (shm_open) segments, with attachments (mmap)
// that route every access through the PageFaultEngine.
//
// A segment carries the embedded interaction timestamp (IpcObject); each
// attachment is the vm_area_struct analogue holding the armed/disarmed MMU
// state. Data storage is real memory so Table-I-style benchmarks measure
// genuine store costs against the interposition overhead.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kern/ipc/ipc_object.h"
#include "kern/ipc/page_fault.h"
#include "util/status.h"

namespace overhaul::kern {

inline constexpr std::size_t kPageSize = 4096;

class ShmSegment : public IpcObject {
 public:
  ShmSegment(const IpcPolicy& policy, std::size_t bytes)
      : IpcObject(policy, IpcFamily::kShm), data_(bytes, std::uint8_t{0}) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::uint8_t* data() noexcept { return data_.data(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return data_.data();
  }

 private:
  std::vector<std::uint8_t> data_;
};

// One task's attachment to a segment — the vm_area_struct analogue. Created
// armed: the paper revokes permissions when the shared mapping is set up, so
// the very first access faults. A null engine means the unmodified kernel:
// page permissions are never touched and accesses go straight to memory.
class ShmMapping {
 public:
  ShmMapping(std::shared_ptr<ShmSegment> segment, PageFaultEngine* engine,
             Pid owner)
      : segment_(std::move(segment)), engine_(engine), owner_(owner) {}

  // --- access API (simulated loads/stores) ---------------------------------
  // Bounds-checked; out-of-range access is a hard programming error in the
  // simulation, reported via kInvalidArgument.
  util::Status write(TaskStruct& task, std::size_t offset,
                     const void* src, std::size_t len);
  util::Status read(TaskStruct& task, std::size_t offset, void* dst,
                    std::size_t len);

  // Lean fixed-width paths for benchmark loops.
  void write_u64(TaskStruct& task, std::size_t offset, std::uint64_t value) {
    if (engine_ != nullptr) engine_->on_access(*this, task, /*is_write=*/true);
    std::memcpy(segment_->data() + offset, &value, sizeof(value));
  }
  [[nodiscard]] std::uint64_t read_u64(TaskStruct& task, std::size_t offset) {
    if (engine_ != nullptr) engine_->on_access(*this, task, /*is_write=*/false);
    std::uint64_t value;
    std::memcpy(&value, segment_->data() + offset, sizeof(value));
    return value;
  }

  [[nodiscard]] const std::shared_ptr<ShmSegment>& segment() const {
    return segment_;
  }
  [[nodiscard]] Pid owner() const noexcept { return owner_; }

  // MMU state, manipulated by the PageFaultEngine.
  [[nodiscard]] bool armed() const noexcept { return armed_; }

 private:
  friend class PageFaultEngine;
  std::shared_ptr<ShmSegment> segment_;
  PageFaultEngine* engine_;  // null = unmodified kernel (no interposition)
  Pid owner_;
  bool armed_ = true;  // permissions revoked at map time
  sim::Timestamp rearm_at_{0};
};

// The per-access hot path. The disarmed (common) case costs two compares —
// the closest software analogue to the real system, where the MMU enforces
// nothing while permissions are restored.
inline void PageFaultEngine::on_access(ShmMapping& mapping, TaskStruct& task,
                                       bool is_write) {
  if (!config_.interpose) return;  // baseline engine: MMU untouched
  // Wait-list expiry: once the wait has elapsed, permissions are revoked
  // again and the next access faults. Checked lazily against the virtual
  // clock — equivalent to the paper's timer-driven wait list.
  if (!mapping.armed_) {
    if (clock_.now() < mapping.rearm_at_) {
      if (config_.track_misses) note_fast_access(mapping, task, is_write);
      return;
    }
    // Wait elapsed: permissions are revoked again (the paper's wait-list
    // timer firing). Counted as a re-arm; the fault below is counted there.
    mapping.armed_ = true;
    if (c_rearms_ != nullptr) c_rearms_->add();
  }
  handle_fault(mapping, task, is_write);
}

// POSIX shm namespace: shm_open(name) → segment.
class PosixShmNamespace {
 public:
  explicit PosixShmNamespace(const IpcPolicy& policy) : policy_(policy) {}

  util::Result<std::shared_ptr<ShmSegment>> open(const std::string& name,
                                                 bool create,
                                                 std::size_t bytes = 0);
  util::Status unlink(const std::string& name);
  [[nodiscard]] std::size_t count() const noexcept { return segments_.size(); }

 private:
  const IpcPolicy& policy_;
  std::map<std::string, std::shared_ptr<ShmSegment>> segments_;
};

}  // namespace overhaul::kern

// DeviceRegistry: sensitive-hardware metadata.
//
// The paper protects "sensitive hardware devices ... typical examples on
// desktop operating systems include the camera and microphone" by mediating
// open(2) on their device nodes (§IV-B "Device mediation"). Because modern
// distributions assign device names dynamically (udev), the kernel cannot
// hard-code paths; a trusted helper keeps the path→device map current
// (see kern/udev.h). This registry is the kernel-side source of truth for
// what a device *is* (its class / sensitivity), independent of where its
// node currently lives in /dev.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::kern {

using DeviceId = std::uint32_t;
inline constexpr DeviceId kNoDevice = 0;

enum class DeviceClass : std::uint8_t {
  kMicrophone,
  kCamera,
  kSensor,      // other privacy-sensitive sensor (protected, generic alert)
  kHarmless,    // e.g. /dev/null — never mediated
};

struct Device {
  DeviceId id = kNoDevice;
  DeviceClass cls = DeviceClass::kHarmless;
  std::string model;  // descriptive only

  [[nodiscard]] bool sensitive() const noexcept {
    return cls != DeviceClass::kHarmless;
  }
};

// Map a device class to the audit/alert operation it represents.
[[nodiscard]] constexpr util::Op op_for_device(DeviceClass cls) noexcept {
  switch (cls) {
    case DeviceClass::kMicrophone: return util::Op::kMicrophone;
    case DeviceClass::kCamera: return util::Op::kCamera;
    case DeviceClass::kSensor:
    case DeviceClass::kHarmless: return util::Op::kDeviceOther;
  }
  return util::Op::kDeviceOther;
}

class DeviceRegistry {
 public:
  // Register a hardware device; returns its stable id.
  DeviceId add(DeviceClass cls, std::string model);

  [[nodiscard]] const Device* find(DeviceId id) const;

  // Simulated driver-open work: initializing stream state the way a real
  // driver does on open(2) (the paper's 10M microphone opens cost ~4.5 µs
  // each on their testbed). Touches a scratch buffer so a device open costs
  // microseconds rather than a map lookup — this keeps benchmark baselines
  // honest. Runs identically with and without Overhaul.
  void simulate_open_work(DeviceId id) noexcept;

  // --- kernel path map (maintained by the trusted udev helper) -------------
  // Current filesystem path for each sensitive device node. open(2) consults
  // this to decide whether a node is mediated.
  void map_path(std::string path, DeviceId id);
  void unmap_path(const std::string& path);
  [[nodiscard]] std::optional<DeviceId> device_at(const std::string& path) const;

 private:
  std::map<DeviceId, Device> devices_;
  std::map<std::string, DeviceId> path_map_;
  DeviceId next_id_ = 1;

  // Driver scratch state for simulate_open_work.
  static constexpr std::size_t kDriverScratchBytes = 16 * 1024;
  std::vector<std::uint8_t> scratch_ =
      std::vector<std::uint8_t>(kDriverScratchBytes);
  std::uint64_t scratch_mix_ = 0;
};

}  // namespace overhaul::kern

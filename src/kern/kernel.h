// Kernel: facade over the simulated Linux subsystems.
//
// Owns the process table, VFS, device registry, permission monitor, netlink
// hub, ptrace manager, pty driver, the page-fault engine, and every IPC
// namespace, and exposes the syscall-shaped API that simulated applications
// program against. The Overhaul interposition points live exactly where the
// paper puts them: sys_open for device mediation, the IPC send/receive
// paths for P2, fork for P1, the pty driver for CLI interactions.
//
// `KernelConfig::overhaul_enabled = false` yields the *unmodified* kernel:
// no device mediation, no IPC stamping, no page-permission games. That is
// the baseline side of every Table-I benchmark.
#pragma once

#include <memory>
#include <string>

#include "audit/sink.h"
#include "kern/devices.h"
#include "kern/ipc/fifo.h"
#include "kern/ipc/msg_queue.h"
#include "kern/ipc/page_fault.h"
#include "kern/ipc/pipe.h"
#include "kern/ipc/shared_memory.h"
#include "kern/ipc/unix_socket.h"
#include "kern/netlink.h"
#include "kern/permission_monitor.h"
#include "kern/process_table.h"
#include "kern/procfs.h"
#include "kern/signals.h"
#include "kern/ptrace.h"
#include "kern/pty.h"
#include "kern/vfs.h"
#include "obs/obs.h"
#include "sim/clock.h"
#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::kern {

struct KernelConfig {
  bool overhaul_enabled = true;                       // false = baseline kernel
  GrantPolicy grant_policy = GrantPolicy::kInputDriven;
  sim::Duration delta = sim::Duration::seconds(2);    // interaction threshold δ
  sim::Duration shm_rearm_wait = sim::Duration::millis(500);
  bool ptrace_protect = true;
  bool audit = true;
  MonitorMode monitor_mode = MonitorMode::kEnforce;
  // Netlink interaction coalescing (DESIGN.md §10): burst notifications for
  // the same pid collapse into one kernel crossing, bounded by max_skew.
  bool netlink_coalesce = true;
  sim::Duration netlink_coalesce_skew = sim::Duration::millis(10);
  // Prepended to every metric name this kernel registers (DESIGN.md §14):
  // the fleet harness boots shard k with "fleet.shard<k>." so N shards'
  // instruments never collide when rolled up. Paid once at registration —
  // resolved handles keep the hot path a single relaxed atomic add.
  std::string metrics_prefix;
};

class UdevHelper;

class Kernel {
 public:
  explicit Kernel(sim::Clock& clock, KernelConfig config = {});
  ~Kernel();  // out-of-line: UdevHelper is incomplete here

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- subsystem access ------------------------------------------------------
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] const KernelConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool overhaul_enabled() const noexcept {
    return config_.overhaul_enabled;
  }

  [[nodiscard]] ProcessTable& processes() noexcept { return processes_; }
  [[nodiscard]] Vfs& vfs() noexcept { return vfs_; }
  [[nodiscard]] DeviceRegistry& devices() noexcept { return devices_; }
  [[nodiscard]] PermissionMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] NetlinkHub& netlink() noexcept { return netlink_; }
  [[nodiscard]] PtraceManager& ptrace() noexcept { return ptrace_; }
  [[nodiscard]] ProcFs& procfs() noexcept { return procfs_; }
  [[nodiscard]] SignalManager& signals() noexcept { return signals_; }
  [[nodiscard]] PtyDriver& ptys() noexcept { return ptys_; }
  [[nodiscard]] PageFaultEngine& page_faults() noexcept { return page_faults_; }
  [[nodiscard]] audit::Sink& audit() noexcept { return audit_; }
  [[nodiscard]] IpcPolicy& ipc_policy() noexcept { return ipc_policy_; }
  // The kernel-wide observability bundle: every subsystem above records into
  // it, /proc/overhaul/metrics renders it, benches export it as JSON.
  [[nodiscard]] obs::Observability& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const noexcept { return obs_; }

  [[nodiscard]] PosixMqNamespace& posix_mqs() noexcept { return posix_mqs_; }
  [[nodiscard]] PosixShmNamespace& posix_shms() noexcept { return posix_shms_; }
  [[nodiscard]] UnixSocketNamespace& unix_sockets() noexcept {
    return unix_sockets_;
  }

  // --- process syscalls -------------------------------------------------------
  util::Result<Pid> sys_fork(Pid parent);
  util::Result<Pid> sys_clone_thread(Pid leader);
  util::Status sys_execve(Pid pid, std::string exe, std::string comm);
  // fork + execve in one step (what launchers do).
  util::Result<Pid> sys_spawn(Pid parent, std::string exe, std::string comm);
  util::Status sys_exit(Pid pid);

  // --- file syscalls -----------------------------------------------------------
  // open(2) with the Overhaul device-mediation hook: opening a device node
  // whose path is in the kernel's sensitive map triggers a permission-
  // monitor check (§IV-B). Denials surface as kOverhaulDenied.
  util::Result<int> sys_open(Pid pid, const std::string& path, OpenFlags flags);
  util::Status sys_close(Pid pid, int fd);
  util::Result<StatBuf> sys_stat(const std::string& path);
  util::Status sys_unlink(Pid pid, const std::string& path);
  util::Status sys_mkdir(Pid pid, const std::string& path);
  util::Status sys_mkfifo(Pid pid, const std::string& path);

  // Generic fd read/write (pipe and fifo ends, sockets, pty ends, plain
  // files, devices): one call to the description's file_write/file_read.
  util::Result<std::size_t> sys_write(Pid pid, int fd, std::string_view data);
  util::Result<std::string> sys_read(Pid pid, int fd, std::size_t max_bytes);

  // --- pseudo-terminals -------------------------------------------------------
  // posix_openpt(2): allocate a pty pair; the caller gets the master fd and
  // the slave's /dev/pts path appears in the filesystem.
  util::Result<std::pair<int, std::string>> sys_openpt(Pid pid);

  // --- pipe ---------------------------------------------------------------------
  // pipe(2): returns {read_fd, write_fd}.
  util::Result<std::pair<int, int>> sys_pipe(Pid pid);

  // socketpair(2): a connected UNIX-socket pair as two fds on the caller
  // (handed to children via fork, like the real call).
  util::Result<std::pair<int, int>> sys_socketpair(Pid pid);

  // --- shared memory --------------------------------------------------------------
  util::Result<std::shared_ptr<ShmMapping>> sys_mmap_shared(
      Pid pid, const std::shared_ptr<ShmSegment>& segment);

  // MAP_PRIVATE: a copy-on-write snapshot. §IV-B interposes only on areas
  // "flagged as shared (indicated by a flag inside the corresponding
  // vm_area_struct)" — private mappings are not IPC and are never armed.
  util::Result<std::shared_ptr<ShmMapping>> sys_mmap_private(
      Pid pid, const std::shared_ptr<ShmSegment>& segment);

  // --- ptrace (with Overhaul hardening toggle via monitor) -------------------------
  util::Status sys_ptrace_attach(Pid tracer, Pid tracee) {
    return ptrace_.attach(tracer, tracee);
  }
  util::Status sys_ptrace_detach(Pid tracer, Pid tracee) {
    return ptrace_.detach(tracer, tracee);
  }

  // --- signals ---------------------------------------------------------------------
  util::Status sys_kill(Pid sender, Pid target, Signal sig) {
    auto s = signals_.send(sender, target, sig);
    if (s.is_ok() && (sig == Signal::kKill || sig == Signal::kTerm))
      netlink_.drop_dead_channels();
    return s;
  }

  // --- /proc ----------------------------------------------------------------------
  util::Result<std::string> sys_proc_read(Pid pid, const std::string& path) {
    return procfs_.read(pid, path);
  }
  util::Status sys_proc_write(Pid pid, const std::string& path,
                              const std::string& value) {
    return procfs_.write(pid, path, value);
  }

  // --- device provisioning (hardware plug-in; used by scenario setup) --------------
  // Registers a device and creates its /dev node; the trusted udev helper
  // (if running) picks the change up and updates the kernel map.
  util::Result<DeviceId> install_device(DeviceClass cls, std::string model,
                                        const std::string& dev_path);

  // Spawn the root-owned udev helper process and connect its netlink
  // channel. Called by OverhaulSystem at boot; separable for tests.
  util::Status start_udev_helper();
  [[nodiscard]] UdevHelper* udev_helper() noexcept {
    return udev_helper_.get();
  }

 private:
  void wire_netlink_handlers();
  void wire_alert_forwarding();
  void wire_observability();

  sim::Clock& clock_;
  KernelConfig config_;

  // Declared before the mediating subsystems: they pre-resolve handles into
  // it during construction/attachment.
  obs::Observability obs_{clock_};

  // The per-shard decision log (DESIGN.md §16).
  audit::Sink audit_;
  ProcessTable processes_;
  Vfs vfs_;
  DeviceRegistry devices_;
  PermissionMonitor monitor_;
  NetlinkHub netlink_;
  PtraceManager ptrace_;
  ProcFs procfs_;
  SignalManager signals_{processes_};
  IpcPolicy ipc_policy_;
  PageFaultEngine page_faults_;
  PtyDriver ptys_;
  FifoNamespace fifos_;
  PosixMqNamespace posix_mqs_;
  PosixShmNamespace posix_shms_;
  UnixSocketNamespace unix_sockets_;

  std::unique_ptr<UdevHelper> udev_helper_;
  Pid udev_helper_pid_ = kNoPid;

  // Pre-resolved device-mediation counters (sys_open hot path).
  obs::Counter* c_device_opens_ = nullptr;
  obs::Counter* c_device_denials_ = nullptr;
};

}  // namespace overhaul::kern

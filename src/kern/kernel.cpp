#include "kern/kernel.h"

#include "kern/udev.h"

namespace overhaul::kern {

using util::Code;
using util::Decision;
using util::Result;
using util::Status;

Kernel::~Kernel() = default;

Kernel::Kernel(sim::Clock& clock, KernelConfig config)
    : clock_(clock),
      config_(config),
      monitor_(processes_, clock_, audit_),
      netlink_(processes_, vfs_),
      ptrace_(processes_),
      procfs_(processes_, monitor_, ptrace_, clock_, config.overhaul_enabled),
      ipc_policy_{config.overhaul_enabled},
      page_faults_(clock_, PageFaultConfig{config.shm_rearm_wait,
                                           config.overhaul_enabled, false}),
      ptys_(ipc_policy_),
      fifos_(ipc_policy_),
      posix_mqs_(ipc_policy_),
      posix_shms_(ipc_policy_),
      unix_sockets_(ipc_policy_) {
  // Must precede every instrument registration (all of which happen below in
  // wire_observability or later at attach time): the prefix is applied when
  // a name is first resolved, never re-applied to live handles.
  obs_.metrics.set_prefix(config_.metrics_prefix);
  monitor_.set_threshold(config.delta);
  monitor_.set_grant_policy(config.grant_policy);
  monitor_.set_ptrace_protect(config.ptrace_protect);
  monitor_.set_audit_enabled(config.audit);
  monitor_.set_mode(config.monitor_mode);
  netlink_.set_coalescing(
      {config.netlink_coalesce, config.netlink_coalesce_skew});

  // Well-known authorized netlink peers: the display manager binaries (one
  // per backend behind the core::DisplayBackend seam) and the trusted udev
  // helper. All must be root-owned on disk at connect time.
  netlink_.authorize("/usr/lib/xorg/Xorg", NetlinkRole::kDisplayManager);
  netlink_.authorize("/usr/bin/wayland-compositor",
                     NetlinkRole::kDisplayManager);
  netlink_.authorize(kUdevHelperExe, NetlinkRole::kDeviceHelper);

  // Root-owned binaries exist in the VFS so introspection can stat them.
  auto& init = processes_.init_task();
  for (const char* p : {"/usr/lib/xorg", "/usr/lib/overhaul", "/usr/bin",
                        "/dev/pts", "/dev/snd"}) {
    (void)vfs_.mkdir(p, kRootUid, Mode::world_rw());
  }
  for (const char* p : {"/usr/lib/xorg/Xorg", "/usr/bin/wayland-compositor",
                        kUdevHelperExe, "/sbin/init"}) {
    (void)vfs_.open(init, p, OpenFlags::kCreate);
  }

  wire_netlink_handlers();
  wire_alert_forwarding();
  wire_observability();
}

void Kernel::wire_observability() {
  monitor_.attach_obs(&obs_);
  netlink_.attach_obs(&obs_);
  page_faults_.attach_obs(&obs_);
  procfs_.attach_obs(&obs_);

  c_device_opens_ = obs_.metrics.counter("vfs.device.opens");
  c_device_denials_ = obs_.metrics.counter("vfs.device.denials");

  // Per-family P2 stamp counters. The policy struct is shared by const
  // reference with every IPC object, so filling it here hands pre-resolved
  // handles to all current and future channels at once.
  constexpr IpcFamily kFamilies[] = {
      IpcFamily::kPipe, IpcFamily::kFifo, IpcFamily::kMsgQueue,
      IpcFamily::kSocket, IpcFamily::kShm, IpcFamily::kPty,
      IpcFamily::kXShard};
  for (const IpcFamily family : kFamilies) {
    const std::string prefix = std::string("ipc.") + ipc_family_name(family);
    auto& slot = ipc_policy_.counters[static_cast<std::size_t>(family)];
    slot.send_stamps = obs_.metrics.counter(prefix + ".send_stamps");
    slot.recv_adoptions = obs_.metrics.counter(prefix + ".recv_adoptions");
  }
}

void Kernel::wire_netlink_handlers() {
  // Coalescing barrier: every permission check — including sys_open device
  // mediation, which never touches a netlink channel — first drains buffered
  // interaction notifications, making coalescing decision-equivalent.
  monitor_.set_pre_check_flush([this] { netlink_.flush_coalesced(); });

  netlink_.set_interaction_handler(
      [this](const InteractionNotification& note) -> Status {
        if (!monitor_.record_interaction(note.pid, note.ts))
          return Status(Code::kNotFound, "interaction: unknown pid");
        return Status::ok();
      });

  netlink_.set_acg_grant_handler(
      [this](const AcgGrantNotification& note) -> Status {
        if (!monitor_.record_acg_grant(note.pid, note.op, note.ts))
          return Status(Code::kNotFound, "acg grant: unknown pid");
        return Status::ok();
      });

  netlink_.set_query_handler(
      [this](const PermissionQuery& query) -> Result<PermissionReply> {
        const Decision d =
            monitor_.check(query.pid, query.op, query.op_time, query.detail);
        return PermissionReply{d};
      });

  netlink_.set_device_update_handler(
      [this](const DeviceMapUpdate& update) -> Status {
        if (update.add) {
          devices_.map_path(update.path, update.device);
        } else {
          devices_.unmap_path(update.path);
        }
        return Status::ok();
      });
}

void Kernel::wire_alert_forwarding() {
  // V_{A,op}: the permission monitor asks the display manager(s) to show a
  // visual alert; only the kernel can resolve the pid → comm binding.
  monitor_.set_alert_request_handler(
      [this](Pid pid, util::Op op, Decision decision) {
        AlertRequest alert;
        alert.pid = pid;
        alert.op = op;
        alert.decision = decision;
        const TaskStruct* task = processes_.lookup(pid);
        alert.comm = task != nullptr ? task->comm : "?";
        netlink_.request_alert(alert);
      });
}

// --- process syscalls ---------------------------------------------------------

Result<Pid> Kernel::sys_fork(Pid parent) { return processes_.fork(parent); }

Result<Pid> Kernel::sys_clone_thread(Pid leader) {
  return processes_.spawn_thread(leader);
}

Status Kernel::sys_execve(Pid pid, std::string exe, std::string comm) {
  return processes_.execve(pid, std::move(exe), std::move(comm));
}

Result<Pid> Kernel::sys_spawn(Pid parent, std::string exe, std::string comm) {
  auto child = processes_.fork(parent);
  if (!child.is_ok()) return child.status();
  if (auto s = processes_.execve(child.value(), std::move(exe), std::move(comm));
      !s.is_ok())
    return s;
  return child.value();
}

Status Kernel::sys_exit(Pid pid) {
  auto s = processes_.exit(pid);
  netlink_.drop_dead_channels();
  return s;
}

// --- file syscalls ---------------------------------------------------------------

Result<int> Kernel::sys_open(Pid pid, const std::string& path,
                             OpenFlags flags) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "open: no such process");

  auto inode = vfs_.open(*task, path, flags);
  if (!inode.is_ok()) return inode.status();

  // --- Overhaul device mediation hook (augmented open(2), §IV-B) -----------
  // "in addition to normal UNIX access control checks, looks up the
  // interaction notification records ... for the running process to allow
  // or deny access to the device accordingly."
  if (config_.overhaul_enabled &&
      inode.value()->type == InodeType::kDevice) {
    if (const auto dev_id = devices_.device_at(path); dev_id.has_value()) {
      const Device* dev = devices_.find(*dev_id);
      if (dev != nullptr && dev->sensitive()) {
        const Decision d = monitor_.check_now(pid, op_for_device(dev->cls), path);
        if (d == Decision::kDeny) {
          c_device_denials_->add();
          return Status(Code::kOverhaulDenied,
                        "no recent user interaction for " + path);
        }
      }
    }
  }

  // Device nodes: the driver initializes its stream state on every open —
  // identical work with or without Overhaul (it is the baseline cost the
  // paper's Device Access benchmark measures against).
  if (inode.value()->type == InodeType::kDevice &&
      inode.value()->device != kNoDevice) {
    c_device_opens_->add();
    devices_.simulate_open_work(inode.value()->device);
  }

  // Pty slave nodes hand out pty ends.
  if (inode.value()->type == InodeType::kPty) {
    auto pair = ptys_.find(inode.value()->pty_index);
    if (pair == nullptr)
      return Status(Code::kNotFound, "pty backing pair missing");
    return task->install_fd(
        std::make_shared<PtyEndDescription>(std::move(pair),
                                            PtyPair::End::kSlave));
  }

  // FIFO nodes hand out pipe ends instead of plain file descriptions.
  if (inode.value()->type == InodeType::kFifo) {
    auto pipe = fifos_.find(inode.value()->fifo_key);
    if (pipe == nullptr)
      return Status(Code::kNotFound, "fifo backing object missing");
    const auto dir =
        wants_write(flags) ? PipeEnd::Dir::kWrite : PipeEnd::Dir::kRead;
    return task->install_fd(std::make_shared<PipeEnd>(std::move(pipe), dir));
  }

  return task->install_fd(
      std::make_shared<VfsFile>(std::move(inode).value(), path));
}

Status Kernel::sys_close(Pid pid, int fd) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "close: no such process");
  return task->close_fd(fd) ? Status::ok()
                            : Status(Code::kInvalidArgument, "bad fd");
}

Result<StatBuf> Kernel::sys_stat(const std::string& path) {
  return vfs_.stat(path);
}

Status Kernel::sys_unlink(Pid pid, const std::string& path) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "unlink: no such process");
  return vfs_.unlink(path, task->uid);
}

Status Kernel::sys_mkdir(Pid pid, const std::string& path) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "mkdir: no such process");
  return vfs_.mkdir(path, task->uid);
}

Status Kernel::sys_mkfifo(Pid pid, const std::string& path) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "mkfifo: no such process");
  const std::uint32_t key = fifos_.create();
  auto s = vfs_.mkfifo(path, key, task->uid);
  if (!s.is_ok()) fifos_.destroy(key);
  return s;
}

Result<std::size_t> Kernel::sys_write(Pid pid, int fd, std::string_view data) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "write: no such process");
  FileDescription* desc = task->fd(fd);
  if (desc == nullptr) return Status(Code::kInvalidArgument, "bad fd");
  return desc->file_write(*task, data);
}

Result<std::string> Kernel::sys_read(Pid pid, int fd, std::size_t max_bytes) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "read: no such process");
  FileDescription* desc = task->fd(fd);
  if (desc == nullptr) return Status(Code::kInvalidArgument, "bad fd");
  return desc->file_read(*task, max_bytes);
}

Result<std::pair<int, std::string>> Kernel::sys_openpt(Pid pid) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "openpt: no such process");
  auto pair = ptys_.open_pair();
  if (auto s = vfs_.mkpty(pair->slave_path(), pair->index(), task->uid);
      !s.is_ok())
    return s;
  const int fd = task->install_fd(
      std::make_shared<PtyEndDescription>(pair, PtyPair::End::kMaster));
  return std::make_pair(fd, pair->slave_path());
}

Result<std::pair<int, int>> Kernel::sys_pipe(Pid pid) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "pipe: no such process");
  auto pipe = std::make_shared<Pipe>(ipc_policy_);
  const int rfd =
      task->install_fd(std::make_shared<PipeEnd>(pipe, PipeEnd::Dir::kRead));
  const int wfd =
      task->install_fd(std::make_shared<PipeEnd>(pipe, PipeEnd::Dir::kWrite));
  return std::make_pair(rfd, wfd);
}

Result<std::pair<int, int>> Kernel::sys_socketpair(Pid pid) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr)
    return Status(Code::kNotFound, "socketpair: no such process");
  auto [a, b] = UnixSocketPair::make(ipc_policy_);
  const int fd_a =
      task->install_fd(std::make_shared<SocketDescription>(std::move(a)));
  const int fd_b =
      task->install_fd(std::make_shared<SocketDescription>(std::move(b)));
  return std::make_pair(fd_a, fd_b);
}

Result<std::shared_ptr<ShmMapping>> Kernel::sys_mmap_shared(
    Pid pid, const std::shared_ptr<ShmSegment>& segment) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "mmap: no such process");
  if (segment == nullptr)
    return Status(Code::kInvalidArgument, "mmap: null segment");
  // MAP_SHARED under Overhaul: the engine arms the mapping (revokes page
  // permissions) at creation, so the first access faults. The unmodified
  // kernel leaves the mapping alone entirely.
  PageFaultEngine* engine =
      config_.overhaul_enabled ? &page_faults_ : nullptr;
  return std::make_shared<ShmMapping>(segment, engine, pid);
}

Result<std::shared_ptr<ShmMapping>> Kernel::sys_mmap_private(
    Pid pid, const std::shared_ptr<ShmSegment>& segment) {
  TaskStruct* task = processes_.lookup_live(pid);
  if (task == nullptr) return Status(Code::kNotFound, "mmap: no such process");
  if (segment == nullptr)
    return Status(Code::kInvalidArgument, "mmap: null segment");
  // MAP_PRIVATE: snapshot the contents (coarse-grained copy-on-write); the
  // vm_area is not flagged shared, so the page-fault engine never touches
  // it — in either configuration.
  auto snapshot = std::make_shared<ShmSegment>(ipc_policy_, segment->size());
  std::memcpy(snapshot->data(), segment->data(), segment->size());
  return std::make_shared<ShmMapping>(std::move(snapshot), nullptr, pid);
}

Result<DeviceId> Kernel::install_device(DeviceClass cls, std::string model,
                                        const std::string& dev_path) {
  const DeviceId id = devices_.add(cls, std::move(model));
  if (auto s = vfs_.mknod(dev_path, id, kRootUid); !s.is_ok()) return s;
  return id;
}

Status Kernel::start_udev_helper() {
  if (udev_helper_ != nullptr)
    return Status(Code::kExists, "udev helper already running");
  auto pid = sys_spawn(1, kUdevHelperExe, "udev-helper");
  if (!pid.is_ok()) return pid.status();
  udev_helper_pid_ = pid.value();

  auto channel = netlink_.connect(udev_helper_pid_);
  if (!channel.is_ok()) return channel.status();

  udev_helper_ =
      std::make_unique<UdevHelper>(devices_, std::move(channel).value());
  vfs_.subscribe_devtree(udev_helper_.get());

  // Coldplug pass: re-announce device nodes that existed before the helper
  // started, mirroring `udevadm trigger` at boot. The helper applies its own
  // classification and its channel enforces authorization.
  for (const auto& [path, dev_id] : vfs_.device_nodes()) {
    udev_helper_->on_node_added(path, dev_id);
  }
  return Status::ok();
}

}  // namespace overhaul::kern

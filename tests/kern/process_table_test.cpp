#include "kern/process_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace overhaul::kern {
namespace {

TEST(ProcessTable, InitExistsAsPidOne) {
  ProcessTable pt;
  ASSERT_NE(pt.lookup(1), nullptr);
  EXPECT_EQ(pt.init_task().pid, 1);
  EXPECT_EQ(pt.init_task().uid, kRootUid);
  EXPECT_EQ(pt.init_task().exe_path, "/sbin/init");
  EXPECT_EQ(pt.live_count(), 1u);
}

TEST(ProcessTable, ForkCopiesIdentity) {
  ProcessTable pt;
  pt.init_task().uid = 1000;
  pt.init_task().comm = "launcher";
  auto child = pt.fork(1);
  ASSERT_TRUE(child.is_ok());
  const TaskStruct* c = pt.lookup(child.value());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->ppid, 1);
  EXPECT_EQ(c->uid, 1000);
  EXPECT_EQ(c->comm, "launcher");
  EXPECT_EQ(c->tgid, c->pid);
}

// P1: the paper's fork-propagation policy — the child task_struct copy
// carries the parent's interaction timestamp.
TEST(ProcessTable, ForkInheritsInteractionTimestamp) {
  ProcessTable pt;
  pt.init_task().interaction_ts = sim::Timestamp{123456789};
  auto child = pt.fork(1);
  ASSERT_TRUE(child.is_ok());
  EXPECT_EQ(pt.lookup(child.value())->interaction_ts.ns, 123456789);
}

TEST(ProcessTable, ForkOfNeverInteractedStaysNever) {
  ProcessTable pt;
  auto child = pt.fork(1);
  ASSERT_TRUE(child.is_ok());
  EXPECT_TRUE(pt.lookup(child.value())->interaction_ts.is_never());
}

TEST(ProcessTable, ThreadSharesThreadGroup) {
  ProcessTable pt;
  auto leader = pt.fork(1);
  ASSERT_TRUE(leader.is_ok());
  auto thread = pt.spawn_thread(leader.value());
  ASSERT_TRUE(thread.is_ok());
  const TaskStruct* t = pt.lookup(thread.value());
  EXPECT_EQ(t->tgid, leader.value());
  EXPECT_NE(t->pid, leader.value());
}

TEST(ProcessTable, ThreadInheritsInteractionTimestamp) {
  ProcessTable pt;
  auto leader = pt.fork(1);
  pt.lookup(leader.value())->interaction_ts = sim::Timestamp{777};
  auto thread = pt.spawn_thread(leader.value());
  EXPECT_EQ(pt.lookup(thread.value())->interaction_ts.ns, 777);
}

TEST(ProcessTable, ExecveReplacesImageKeepsTimestamp) {
  ProcessTable pt;
  auto child = pt.fork(1);
  pt.lookup(child.value())->interaction_ts = sim::Timestamp{42};
  ASSERT_TRUE(pt.execve(child.value(), "/usr/bin/shot", "shot").is_ok());
  const TaskStruct* c = pt.lookup(child.value());
  EXPECT_EQ(c->exe_path, "/usr/bin/shot");
  EXPECT_EQ(c->comm, "shot");
  EXPECT_EQ(c->interaction_ts.ns, 42);  // exec does not clear the record
}

TEST(ProcessTable, ExitMarksDeadAndKeepsTombstone) {
  ProcessTable pt;
  auto child = pt.fork(1);
  ASSERT_TRUE(pt.exit(child.value()).is_ok());
  EXPECT_EQ(pt.lookup_live(child.value()), nullptr);
  ASSERT_NE(pt.lookup(child.value()), nullptr);
  EXPECT_FALSE(pt.lookup(child.value())->alive);
  EXPECT_EQ(pt.live_count(), 1u);
}

TEST(ProcessTable, ExitDetachesTracees) {
  ProcessTable pt;
  auto tracer = pt.fork(1);
  auto tracee = pt.fork(tracer.value());
  pt.attach_trace(tracer.value(), tracee.value());
  ASSERT_TRUE(pt.lookup(tracee.value())->is_traced());
  ASSERT_TRUE(pt.exit(tracer.value()).is_ok());
  EXPECT_FALSE(pt.lookup(tracee.value())->is_traced());
}

TEST(ProcessTable, ExitDetachesTraceesFromItsTracer) {
  ProcessTable pt;
  auto tracer = pt.fork(1);
  auto tracee = pt.fork(tracer.value());
  pt.attach_trace(tracer.value(), tracee.value());
  ASSERT_TRUE(pt.exit(tracee.value()).is_ok());
  // The tracer's reverse index must not keep naming the dead tracee.
  EXPECT_TRUE(pt.lookup(tracer.value())->tracees.empty());
}

TEST(ProcessTable, DetachTraceMaintainsReverseIndex) {
  ProcessTable pt;
  auto tracer = pt.fork(1);
  auto t1 = pt.fork(tracer.value());
  auto t2 = pt.fork(tracer.value());
  pt.attach_trace(tracer.value(), t1.value());
  pt.attach_trace(tracer.value(), t2.value());
  EXPECT_EQ(pt.lookup(tracer.value())->tracees.size(), 2u);
  pt.detach_trace(tracer.value(), t1.value());
  EXPECT_FALSE(pt.lookup(t1.value())->is_traced());
  EXPECT_TRUE(pt.lookup(t2.value())->is_traced());
  EXPECT_EQ(pt.lookup(tracer.value())->tracees.size(), 1u);
}

// Regression for the old O(n) exit path: detaching tracees must not scan the
// whole table. With 20k live tasks, a tracer exit touches only its own
// tracees — this test pins the *behavior* (correct detach in a large table);
// bench_hotpath tracks the cost.
TEST(ProcessTable, ExitDetachScalesOnLargeTable) {
  ProcessTable pt;
  constexpr int kTasks = 20'000;
  std::vector<Pid> pids;
  pids.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) pids.push_back(pt.fork(1).value());
  const Pid tracer = pids[0];
  for (int i = 1; i <= 5; ++i) pt.attach_trace(tracer, pids[i]);
  ASSERT_TRUE(pt.exit(tracer).is_ok());
  for (int i = 1; i <= 5; ++i)
    EXPECT_FALSE(pt.lookup(pids[i])->is_traced()) << "tracee " << i;
  // Untraced bystanders are untouched.
  EXPECT_FALSE(pt.lookup(pids[100])->is_traced());
  EXPECT_EQ(pt.live_count(), static_cast<std::size_t>(kTasks));  // init + 19999
}

TEST(ProcessTable, ForkOfDeadParentFails) {
  ProcessTable pt;
  auto child = pt.fork(1);
  ASSERT_TRUE(pt.exit(child.value()).is_ok());
  EXPECT_FALSE(pt.fork(child.value()).is_ok());
}

TEST(ProcessTable, IsDescendantTransitive) {
  ProcessTable pt;
  auto a = pt.fork(1);
  auto b = pt.fork(a.value());
  auto c = pt.fork(b.value());
  EXPECT_TRUE(pt.is_descendant(a.value(), b.value()));
  EXPECT_TRUE(pt.is_descendant(a.value(), c.value()));
  EXPECT_TRUE(pt.is_descendant(1, c.value()));
  EXPECT_FALSE(pt.is_descendant(b.value(), a.value()));
  EXPECT_FALSE(pt.is_descendant(c.value(), a.value()));
}

TEST(ProcessTable, SiblingsAreNotDescendants) {
  ProcessTable pt;
  auto a = pt.fork(1);
  auto b = pt.fork(1);
  EXPECT_FALSE(pt.is_descendant(a.value(), b.value()));
  EXPECT_FALSE(pt.is_descendant(b.value(), a.value()));
}

TEST(ProcessTable, FdTableSharedDescriptionsOnFork) {
  ProcessTable pt;
  class Dummy final : public FileDescription {
   public:
    [[nodiscard]] std::string describe() const override { return "dummy"; }
  };
  auto desc = std::make_shared<Dummy>();
  const int fd = pt.init_task().install_fd(desc);
  auto child = pt.fork(1);
  EXPECT_EQ(pt.lookup(child.value())->fd(fd).get(), desc.get());
}

TEST(ProcessTable, ForEachLiveSkipsDead) {
  ProcessTable pt;
  auto a = pt.fork(1);
  auto b = pt.fork(1);
  (void)pt.exit(a.value());
  int count = 0;
  pt.for_each_live([&](TaskStruct&) { ++count; });
  EXPECT_EQ(count, 2);  // init + b
  (void)b;
}

// --- slab handles & generation safety ---------------------------------------

TEST(ProcessTableSlab, HandleResolvesToSameTask) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  const TaskHandle h = pt.handle_of(pid);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(pt.get(h), pt.lookup(pid));
  EXPECT_EQ(pt.get_live(h), pt.lookup(pid));
}

TEST(ProcessTableSlab, HandleOfUnknownPidIsInvalid) {
  ProcessTable pt;
  EXPECT_FALSE(pt.handle_of(9999).valid());
  EXPECT_EQ(pt.get(TaskHandle{}), nullptr);
}

TEST(ProcessTableSlab, HandleSeesTombstoneButNotLive) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  const TaskHandle h = pt.handle_of(pid);
  ASSERT_TRUE(pt.exit(pid).is_ok());
  ASSERT_NE(pt.get(h), nullptr);  // tombstone still addressable
  EXPECT_FALSE(pt.get(h)->alive);
  EXPECT_EQ(pt.get_live(h), nullptr);
}

TEST(ProcessTableSlab, ReapRequiresDeadTask) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  EXPECT_EQ(pt.reap(pid).code(), util::Code::kBusy);
  ASSERT_TRUE(pt.exit(pid).is_ok());
  EXPECT_TRUE(pt.reap(pid).is_ok());
  EXPECT_EQ(pt.reap(pid).code(), util::Code::kNotFound);
  EXPECT_EQ(pt.lookup(pid), nullptr);  // tombstone gone
}

TEST(ProcessTableSlab, StaleHandleMissesAfterReap) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  const TaskHandle h = pt.handle_of(pid);
  ASSERT_TRUE(pt.exit(pid).is_ok());
  ASSERT_TRUE(pt.reap(pid).is_ok());
  EXPECT_EQ(pt.get(h), nullptr);
  EXPECT_EQ(pt.get_live(h), nullptr);
}

TEST(ProcessTableSlab, StaleHandleMissesAfterSlotReuse) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  const TaskHandle stale = pt.handle_of(pid);
  ASSERT_TRUE(pt.exit(pid).is_ok());
  ASSERT_TRUE(pt.reap(pid).is_ok());
  // The freed slot is recycled by the next fork; the generation bump keeps
  // the old handle from resolving to the unrelated new task.
  auto reuse = pt.fork(1).value();
  const TaskHandle fresh = pt.handle_of(reuse);
  EXPECT_EQ(fresh.slot, stale.slot);
  EXPECT_NE(fresh.generation, stale.generation);
  EXPECT_EQ(pt.get(stale), nullptr);
  EXPECT_EQ(pt.get(fresh), pt.lookup(reuse));
}

TEST(ProcessTableSlab, PidReuseAfterWraparound) {
  ProcessTable pt(/*pid_max=*/8);
  std::vector<Pid> first;
  for (int i = 0; i < 7; ++i) first.push_back(pt.fork(1).value());
  // Pid space exhausted: every pid 1..8 is bound (init + 7 children).
  EXPECT_EQ(pt.fork(1).code(), util::Code::kResourceExhausted);
  // Retiring one pid makes exactly that pid allocatable again.
  ASSERT_TRUE(pt.exit(first[2]).is_ok());
  EXPECT_EQ(pt.fork(1).code(), util::Code::kResourceExhausted);  // tombstone
  ASSERT_TRUE(pt.reap(first[2]).is_ok());
  auto recycled = pt.fork(1);
  ASSERT_TRUE(recycled.is_ok());
  EXPECT_EQ(recycled.value(), first[2]);
  EXPECT_EQ(pt.lookup(recycled.value())->comm, "init");  // fresh copy of parent
}

TEST(ProcessTableSlab, TaskAddressesStableAcrossGrowth) {
  ProcessTable pt;
  auto pid = pt.fork(1).value();
  const TaskStruct* before = pt.lookup(pid);
  // Grow well past several chunk boundaries.
  for (int i = 0; i < 2'000; ++i) ASSERT_TRUE(pt.fork(1).is_ok());
  EXPECT_EQ(pt.lookup(pid), before);
}

TEST(ProcessTableSlab, ReapedSlotsAreRecycledNotLeaked) {
  ProcessTable pt;
  // Churn: spawn and fully reclaim many processes; the slab must reuse
  // slots instead of growing (observable via stable handle slot indices).
  auto pid0 = pt.fork(1).value();
  const std::int32_t slot0 = pt.handle_of(pid0).slot;
  ASSERT_TRUE(pt.exit(pid0).is_ok());
  ASSERT_TRUE(pt.reap(pid0).is_ok());
  for (int i = 0; i < 100; ++i) {
    auto pid = pt.fork(1).value();
    EXPECT_EQ(pt.handle_of(pid).slot, slot0) << "iteration " << i;
    ASSERT_TRUE(pt.exit(pid).is_ok());
    ASSERT_TRUE(pt.reap(pid).is_ok());
  }
}

// --- paged pid map ------------------------------------------------------------
// pid → slot goes through 1024-pid pages: allocated on first bind, released
// when their last pid is reaped, one emptied page kept as a spare.

// Fork children of init until `pid` has been handed out.
void fork_through(ProcessTable& pt, Pid pid) {
  while (pt.last_pid() < pid) ASSERT_TRUE(pt.fork(1).is_ok());
}

void exit_and_reap(ProcessTable& pt, Pid pid) {
  ASSERT_TRUE(pt.exit(pid).is_ok()) << pid;
  ASSERT_TRUE(pt.reap(pid).is_ok()) << pid;
}

void expect_unbound(ProcessTable& pt, Pid pid) {
  EXPECT_EQ(pt.lookup(pid), nullptr) << pid;
  EXPECT_EQ(pt.lookup_live(pid), nullptr) << pid;
  EXPECT_FALSE(pt.handle_of(pid).valid()) << pid;
}

TEST(ProcessTablePidMap, PageEdgePidsResolveToTheirOwnTasks) {
  ProcessTable pt;
  fork_through(pt, 1025);
  for (const Pid pid : {1023, 1024, 1025}) {
    const TaskStruct* task = pt.lookup(pid);
    ASSERT_NE(task, nullptr) << pid;
    EXPECT_EQ(task->pid, pid);
    EXPECT_EQ(pt.lookup_live(pid), task);
    EXPECT_EQ(pt.get(pt.handle_of(pid)), task);
  }
  expect_unbound(pt, 1026);
}

TEST(ProcessTablePidMap, ReapedPidsMissBeforeAndAfterTheirPageIsReleased) {
  ProcessTable pt;
  fork_through(pt, 1025);
  // 1023 shares page 0 with init; 1024 and 1025 are alone in page 1.
  exit_and_reap(pt, 1023);
  expect_unbound(pt, 1023);
  exit_and_reap(pt, 1024);
  expect_unbound(pt, 1024);
  ASSERT_NE(pt.lookup(1025), nullptr);  // page 1 still held
  exit_and_reap(pt, 1025);              // now page 1 is empty
  for (const Pid pid : {1023, 1024, 1025}) expect_unbound(pt, pid);
  EXPECT_EQ(pt.lookup(1022)->pid, 1022);
}

TEST(ProcessTablePidMap, EmptiedPagesAreReleasedKeepingOneSpare) {
  constexpr std::size_t kPageBytes = 1024 * sizeof(std::int32_t);
  ProcessTable pt;
  fork_through(pt, 3071);  // pages 0, 1 and 2 all bound
  const std::size_t held = pt.bytes();
  for (Pid pid = 2048; pid <= 3071; ++pid) exit_and_reap(pt, pid);
  EXPECT_EQ(pt.bytes(), held);  // page 2 kept as the spare
  for (Pid pid = 1024; pid <= 2047; ++pid) exit_and_reap(pt, pid);
  EXPECT_EQ(pt.bytes(), held - kPageBytes);  // page 1 released
  // The next pid opens page 3 on the spare.
  ASSERT_EQ(pt.fork(1).value(), 3072);
  EXPECT_EQ(pt.lookup(3072)->pid, 3072);
  expect_unbound(pt, 2048);
}

TEST(ProcessTablePidMap, WraparoundAcrossPagesReusesReapedPids) {
  constexpr Pid kPidMax = 3000;  // pages 0, 1 and 2
  constexpr Pid kSurvivor = 1500;
  ProcessTable pt(kPidMax);
  std::vector<TaskHandle> stale(kPidMax + 1);
  std::vector<bool> reused(kPidMax + 1, false);
  // Two laps of the pid space and then some, one task kept alive mid-page.
  for (int i = 0; i < 2 * kPidMax; ++i) {
    const auto forked = pt.fork(1);
    ASSERT_TRUE(forked.is_ok()) << i;
    const Pid pid = forked.value();
    ASSERT_NE(pid, 1);
    if (stale[pid].valid()) {
      ASSERT_NE(pid, kSurvivor);
      reused[pid] = true;
      EXPECT_EQ(pt.get(stale[pid]), nullptr) << pid;
      EXPECT_EQ(pt.get(pt.handle_of(pid)), pt.lookup(pid));
    }
    stale[pid] = pt.handle_of(pid);
    if (pid == kSurvivor) continue;
    exit_and_reap(pt, pid);
    EXPECT_EQ(pt.get(stale[pid]), nullptr) << pid;
  }
  for (const Pid pid : {2, 1023, 1024, 2047, 2048, kPidMax})
    EXPECT_TRUE(reused[pid]) << pid;
  EXPECT_EQ(pt.lookup(kSurvivor)->pid, kSurvivor);
  EXPECT_EQ(pt.get(stale[kSurvivor]), pt.lookup(kSurvivor));
}

// Fork/exit/reap churn from one long-lived parent walks the pid through
// ~200 pages; the table keeps only what its few tasks need, and nothing it
// holds moves.
TEST(ProcessTablePidMap, ChurnKeepsBytesBoundedAndTasksInPlace) {
  ProcessTable pt;
  const Pid parent = pt.fork(1).value();
  const TaskStruct* init = pt.lookup(1);
  const TaskStruct* parent_task = pt.lookup(parent);
  for (int i = 0; i < 200'000; ++i) {
    const auto child = pt.fork(parent);
    ASSERT_TRUE(child.is_ok()) << i;
    exit_and_reap(pt, child.value());
  }
  EXPECT_EQ(pt.last_pid(), 200'002);
  // One chunk, init's page, the current page, the spare and a ~200-entry
  // directory: ~20 KB, where a pid-indexed vector would hold ~800 KB.
  EXPECT_LT(pt.bytes(), 32u * 1024);
  EXPECT_EQ(pt.lookup(1), init);
  EXPECT_EQ(pt.lookup(parent), parent_task);
  EXPECT_EQ(pt.live_count(), 2u);
}

TEST(TaskStruct, AcgGrantArrayAdoptsForwardOnly) {
  TaskStruct t;
  EXPECT_TRUE(t.acg_grant(util::Op::kCamera).is_never());
  t.adopt_acg_grant(util::Op::kCamera, sim::Timestamp{100});
  EXPECT_EQ(t.acg_grant(util::Op::kCamera).ns, 100);
  t.adopt_acg_grant(util::Op::kCamera, sim::Timestamp{50});
  EXPECT_EQ(t.acg_grant(util::Op::kCamera).ns, 100);
  t.adopt_acg_grant(util::Op::kCamera, sim::Timestamp{200});
  EXPECT_EQ(t.acg_grant(util::Op::kCamera).ns, 200);
  // Other ops unaffected (per-op precision is the point of the ACG model).
  EXPECT_TRUE(t.acg_grant(util::Op::kMicrophone).is_never());
}

TEST(TaskStruct, AdoptInteractionOnlyMovesForward) {
  TaskStruct t;
  t.adopt_interaction(sim::Timestamp{100});
  EXPECT_EQ(t.interaction_ts.ns, 100);
  t.adopt_interaction(sim::Timestamp{50});
  EXPECT_EQ(t.interaction_ts.ns, 100);
  t.adopt_interaction(sim::Timestamp{200});
  EXPECT_EQ(t.interaction_ts.ns, 200);
}

}  // namespace
}  // namespace overhaul::kern

// Deterministic parallel quantum executor (DESIGN.md §15).
//
// The fleet harness steps thousands of independent kernel shards per fleet
// quantum; each shard's state is OVERHAUL_SHARD_LOCAL, so the steps commute
// and the only ordering that matters is the per-quantum barrier around the
// cross-shard stamp exchange. This class is the machinery that exploits
// that: a fixed pool of workers, a seed-independent *strided* lane
// partition, and one dispatch/collect barrier per quantum.
//
// Partition: for a quantum of `count` items, lane l owns items l, l+W,
// l+2W, ... (W = workers). The partition is a pure function of (count,
// workers) — no work stealing, no atomic claiming — so which lane runs
// which item never depends on thread timing. Each lane runs its items in
// ascending index order.
//
// Determinism contract: run_quantum(count, fn) calls fn(i) exactly once for
// every i in [0, count); fn touches only item-local state (plus commutative
// cross-item effects that the caller drains after the barrier), so the
// post-quantum state is identical for any worker count — including 1, where
// everything runs inline on the caller's thread with no pool at all. The
// fleet-level property test (tests/fleet/parallel_equivalence_test.cpp)
// holds bit-identical decision/audit streams across 1/2/4/8 workers.
//
// Threading protocol: the coordinator (the thread calling run_quantum) is
// lane 0; the pool holds workers-1 threads for lanes 1..W-1. Dispatch is a
// generation counter (quantum_seq_) under quantum_mu_: workers sleep on
// cv_dispatch_ until the counter moves, run their lane, then bump
// done_count_; the coordinator runs lane 0 inline and sleeps on cv_done_
// until done_count_ == workers. Lock ranks are declared in
// tools/lint/overhaul_lint.rules (r10.order): lifecycle_mu_ before
// quantum_mu_ — stop() nests the handoff lock inside the lifecycle lock.
//
// Exceptions: an item that throws stops its own lane, which hands the
// exception to the barrier instead of unwinding out of it. Every other lane
// runs to its end, the barrier completes as usual, and only then does
// run_quantum rethrow on the caller — the exception of the lowest lane
// that threw. So no worker ever calls a job whose caller has unwound, and
// the next quantum starts from a clean barrier.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace overhaul::sim {

class ParallelExecutor {
 public:
  using LaneFn = std::function<void(std::size_t)>;

  // workers < 1 is clamped to 1. workers == 1 spawns no threads: every
  // quantum runs inline on the caller's thread (the serial path *is* the
  // parallel path with one lane, not a separate code path).
  explicit ParallelExecutor(int workers);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  // Run one quantum: fn(i) for every i in [0, count), partitioned over the
  // lanes, returning after the barrier (all lanes done). The coordinator
  // executes lane 0 itself. `fn` must be safe to call concurrently for
  // items in different lanes. If items throw, each throwing lane skips its
  // remaining items and, after the barrier, the lowest such lane's
  // exception is rethrown here.
  void run_quantum(std::size_t count, const LaneFn& fn);

  [[nodiscard]] int workers() const noexcept { return workers_; }

  // Which lane run_quantum(count, ...) executes item i on.
  [[nodiscard]] int lane_of(std::size_t i) const noexcept {
    return static_cast<int>(i % static_cast<std::size_t>(workers_));
  }

  // Join the pool. Idempotent; the destructor calls it. After stop() the
  // executor still accepts run_quantum, which then runs every lane inline.
  void stop();

  // The machine's useful lane count (hardware_concurrency, clamped to >= 1).
  [[nodiscard]] static int hardware_lanes() noexcept;

 private:
  void worker_loop(int lane);
  // Runs lane `lane`'s items in ascending order; returns what an item threw
  // (the lane stops there), or null.
  std::exception_ptr run_lane(int lane, std::size_t count,
                              const LaneFn& fn) const noexcept;

  const int workers_;

  // Pool lifecycle is coordinator-owned: threads are spawned in the ctor
  // and joined in stop(); workers never touch the vector itself.
  OVERHAUL_SHARD_LOCAL std::vector<std::thread> pool_;

  // Lifecycle lock, ranked *before* quantum_mu_ (r10.order): stop() flips
  // the handoff's stopping_ flag with quantum_mu_ nested inside it.
  OVERHAUL_SHARED(stop) std::mutex lifecycle_mu_;
  OVERHAUL_GUARDED_BY(lifecycle_mu_) bool joined_ = false;

  // Quantum handoff state: the coordinator publishes (job_, item_count_,
  // quantum_seq_) under quantum_mu_, workers consume it and report back
  // through done_count_. The generation counter is what lets a worker that
  // missed a notify distinguish "new quantum" from "spurious wakeup".
  OVERHAUL_SHARED(run_quantum|worker_loop|stop) std::mutex quantum_mu_;
  OVERHAUL_SHARED(run_quantum|worker_loop|stop)
  std::condition_variable cv_dispatch_;
  OVERHAUL_SHARED(run_quantum|worker_loop) std::condition_variable cv_done_;
  OVERHAUL_GUARDED_BY(quantum_mu_) std::uint64_t quantum_seq_ = 0;
  OVERHAUL_GUARDED_BY(quantum_mu_) std::size_t item_count_ = 0;
  OVERHAUL_GUARDED_BY(quantum_mu_) const LaneFn* job_ = nullptr;
  OVERHAUL_GUARDED_BY(quantum_mu_) int done_count_ = 0;
  OVERHAUL_GUARDED_BY(quantum_mu_) bool stopping_ = false;
  // What each lane threw this quantum (null if nothing), reported with its
  // done_count_ bump and cleared by the coordinator after the barrier.
  OVERHAUL_GUARDED_BY(quantum_mu_) std::vector<std::exception_ptr> errors_;
};

}  // namespace overhaul::sim

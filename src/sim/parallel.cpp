#include "sim/parallel.h"

namespace overhaul::sim {

ParallelExecutor::ParallelExecutor(int workers)
    : workers_(workers < 1 ? 1 : workers),
      errors_(static_cast<std::size_t>(workers_)) {
  pool_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int lane = 1; lane < workers_; ++lane)
    pool_.emplace_back([this, lane] { worker_loop(lane); });
}

ParallelExecutor::~ParallelExecutor() { stop(); }

int ParallelExecutor::hardware_lanes() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::exception_ptr ParallelExecutor::run_lane(int lane, std::size_t count,
                                              const LaneFn& fn) const noexcept {
  try {
    for (std::size_t i = static_cast<std::size_t>(lane); i < count;
         i += static_cast<std::size_t>(workers_))
      fn(i);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

OVERHAUL_COORDINATOR_ONLY
void ParallelExecutor::run_quantum(std::size_t count, const LaneFn& fn) {
  if (workers_ == 1 || pool_.empty() || count == 0) {
    // One lane (or a stopped pool): the whole quantum runs inline. This is
    // the serial path the equivalence property test compares against.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(quantum_mu_);
    job_ = &fn;
    item_count_ = count;
    done_count_ = 0;
    ++quantum_seq_;
  }
  cv_dispatch_.notify_all();
  // The coordinator is lane 0: it works instead of blocking, so a 1-worker
  // configuration costs no handoff at all and W workers means W running
  // lanes, not W+1 threads with one idle.
  std::exception_ptr lane0_error = run_lane(0, count, fn);
  std::unique_lock<std::mutex> lk(quantum_mu_);
  errors_[0] = std::move(lane0_error);
  ++done_count_;
  cv_done_.wait(lk, [this] { return done_count_ == workers_; });
  job_ = nullptr;
  // Every lane has stopped, so no thread references `fn` any more: only now
  // may an exception unwind the caller's frame.
  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (first == nullptr) first = e;
    e = nullptr;
  }
  lk.unlock();
  if (first != nullptr) std::rethrow_exception(first);
}

void ParallelExecutor::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t count = 0;
    const LaneFn* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(quantum_mu_);
      cv_dispatch_.wait(lk, [this, seen] {
        return stopping_ || quantum_seq_ != seen;
      });
      if (stopping_) return;
      seen = quantum_seq_;
      count = item_count_;
      job = job_;
    }
    std::exception_ptr error = run_lane(lane, count, *job);
    {
      std::lock_guard<std::mutex> lk(quantum_mu_);
      errors_[static_cast<std::size_t>(lane)] = std::move(error);
      ++done_count_;
      if (done_count_ == workers_) cv_done_.notify_one();
    }
  }
}

OVERHAUL_COORDINATOR_ONLY
void ParallelExecutor::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (joined_) return;
  joined_ = true;
  {
    // Declared rank order (r10.order): lifecycle_mu_ is held, quantum_mu_
    // nests inside it. Workers only ever take quantum_mu_, so the nesting
    // cannot deadlock against the pool being stopped.
    std::lock_guard<std::mutex> lk(quantum_mu_);
    stopping_ = true;
  }
  cv_dispatch_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

}  // namespace overhaul::sim

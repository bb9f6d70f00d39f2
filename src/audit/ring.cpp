#include "audit/ring.h"

#include <algorithm>

namespace overhaul::audit {

void Ring::append_slow(const BinRecord& rec) {
  ++total_appended_;
  if (capacity_ == 0) {
    // Zero-capacity ring: every append is counted and dropped. No storage is
    // touched, so there is no churn and no unbounded growth.
    ++dropped_;
    return;
  }
  // Still filling: grow geometrically toward the cap so an idle ring stays
  // tiny but a busy one stops reallocating once warm.
  if (buf_.size() == buf_.capacity()) {
    const std::size_t want = buf_.capacity() == 0 ? 64 : buf_.capacity() * 2;
    buf_.reserve(std::min(want, capacity_));
  }
  buf_.push_back(rec);
}

void Ring::clear() {
  buf_.clear();
  head_ = 0;
  total_appended_ = 0;
  dropped_ = 0;
  strings_.clear();
}

void Ring::set_capacity(std::size_t cap) {
  const std::size_t new_cap = round_up_pow2(cap);
  const std::size_t keep = std::min(size(), new_cap);
  std::vector<BinRecord> next;
  next.reserve(keep);
  for (std::size_t i = size() - keep; i < size(); ++i) next.push_back(at(i));
  dropped_ += size() - keep;
  buf_ = std::move(next);
  head_ = 0;
  capacity_ = new_cap;
}

}  // namespace overhaul::audit

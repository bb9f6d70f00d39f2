#include "kern/task.h"

#include <stdexcept>

namespace overhaul::kern {

const std::shared_ptr<FileDescription>& FdTable::at(int n) const {
  const auto it = lower_bound(n);
  if (it == entries_.end() || it->first != n)
    throw std::out_of_range("FdTable::at: fd not open");
  return it->second;
}

}  // namespace overhaul::kern

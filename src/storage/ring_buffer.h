// Bounded circular buffer, the in-RAM/Flash storage primitive on a mote:
// both the recent-readings buffer (§5.2) and the Flash data buffer (§5.4)
// overwrite oldest entries when full.
//
// `capacity` is the modelled store size, not a host allocation: the
// backing array grows on demand (doubling, clamped at capacity) and is
// never reserved up front, so a simulated node holds host memory only for
// the entries it actually stored. Once full, Push overwrites in place.
#ifndef SCOOP_STORAGE_RING_BUFFER_H_
#define SCOOP_STORAGE_RING_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace scoop::storage {

/// Circular overwrite-oldest buffer.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(size_t capacity) : capacity_(capacity), items_() {
    SCOOP_CHECK_GT(capacity, 0u);
  }

  /// Appends `item`, overwriting the oldest entry when full.
  void Push(T item) {
    if (items_.size() < capacity_) {
      if (items_.size() == items_.capacity()) {
        // Grow geometrically, but never past the modelled capacity.
        items_.reserve(std::min(capacity_, std::max<size_t>(16, 2 * items_.size())));
      }
      items_.push_back(std::move(item));
    } else {
      items_[head_] = std::move(item);
      head_ = (head_ + 1) % capacity_;
      ++overwritten_;
    }
    ++total_pushed_;
  }

  /// Number of live entries (<= capacity).
  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() == capacity_; }

  /// i-th entry in insertion order: 0 is the oldest live entry.
  const T& operator[](size_t i) const {
    SCOOP_CHECK_LT(i, items_.size());
    return items_[(head_ + i) % items_.size()];
  }

  /// Calls `fn(item)` for each live entry, oldest first.
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t i = 0; i < items_.size(); ++i) fn((*this)[i]);
  }

  /// Total Push() calls over the buffer's lifetime.
  uint64_t total_pushed() const { return total_pushed_; }

  /// Entries lost to overwriting.
  uint64_t overwritten() const { return overwritten_; }

  /// Removes all entries (counters are preserved).
  void Clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t head_ = 0;  // Index of the oldest entry once full.
  uint64_t total_pushed_ = 0;
  uint64_t overwritten_ = 0;
};

}  // namespace scoop::storage

#endif  // SCOOP_STORAGE_RING_BUFFER_H_

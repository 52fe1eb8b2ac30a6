#include "sim/collision.h"

#include "common/check.h"

namespace scoop::sim {

CollisionKernel::CollisionKernel(const Topology* topology, const RadioOptions& options,
                                 SimTime max_airtime)
    : topology_(topology),
      enabled_(options.model_collisions),
      threshold_(options.interference_threshold),
      capture_ratio_(options.capture_ratio),
      max_airtime_(max_airtime) {
  SCOOP_CHECK(topology != nullptr);
  slots_.resize(static_cast<size_t>(topology->num_nodes()));
  double max_d2 = 0;
  for (NodeId i = 0; i < topology->num_nodes(); ++i) {
    const Point& a = topology->position(i);
    for (const Topology::Link& link : topology->audible_from(i)) {
      const Point& b = topology->position(link.to);
      double dx = a.x - b.x;
      double dy = a.y - b.y;
      max_d2 = std::max(max_d2, dx * dx + dy * dy);
    }
  }
  range2_ = 4.0 * max_d2;  // (2 * max audible distance)^2.
}

void CollisionKernel::Insert(NodeId src, SimTime start, SimTime end) {
  // Local transmissions start at now() (monotone), so this is a push_back;
  // only a boundary announcement can land behind the tail.
  Transmission tx{src, start, end};
  size_t pos = ring_.size();
  ring_.push_back(tx);
  while (pos > head_ && ring_[pos - 1].start > tx.start) {
    ring_[pos] = ring_[pos - 1];
    --pos;
  }
  ring_[pos] = tx;
}

void CollisionKernel::Prune(SimTime now) {
  // Anything that started more than five max-length frames ago can no
  // longer overlap a transmission still in flight.
  SimTime horizon = now - 4 * max_airtime_;
  while (head_ < ring_.size() && ring_[head_].start + max_airtime_ < horizon) ++head_;
  if (head_ >= 64 && head_ * 2 >= ring_.size()) {
    ring_.erase(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

bool CollisionKernel::Open(NodeId sender, SimTime start, SimTime end) {
  if (!enabled_) return false;
  ++stamp_;
  bool any = false;
  const Point& s = topology_->position(sender);
  for (size_t i = ring_.size(); i-- > head_;) {
    const Transmission& tx = ring_[i];
    if (tx.start + max_airtime_ <= start) break;
    if (tx.src == sender) continue;
    if (tx.end <= start || tx.start >= end) continue;  // No time overlap.
    const Point& p = topology_->position(tx.src);
    double dx = s.x - p.x;
    double dy = s.y - p.y;
    if (dx * dx + dy * dy > range2_) continue;  // Too far to matter.
    // Branch-free max: whether an earlier row already touched the slot is
    // unpredictable, and link probabilities are > 0, so 0 stands in for
    // "untouched".
    for (const Topology::Link& link : topology_->audible_from(tx.src)) {
      Slot& slot = slots_[link.to];
      double prior = slot.stamp == stamp_ ? slot.max_prob : 0.0;
      slot.max_prob = std::max(prior, link.prob);
      slot.stamp = stamp_;
    }
    any = true;
  }
  return any;
}

}  // namespace scoop::sim

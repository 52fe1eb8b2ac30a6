#include "net/descendants.h"

#include <algorithm>

#include "common/check.h"

namespace scoop::net {

DescendantsTable::DescendantsTable(const DescendantsOptions& options) : options_(options) {
  SCOOP_CHECK_GT(options_.capacity, 0);
  entries_.reserve(static_cast<size_t>(options_.capacity));
}

std::vector<DescendantsTable::Entry>::iterator DescendantsTable::LowerBound(NodeId id) {
  return std::lower_bound(entries_.begin(), entries_.end(), id,
                          [](const Entry& e, NodeId key) { return e.id < key; });
}

std::vector<DescendantsTable::Entry>::const_iterator DescendantsTable::Find(
    NodeId id) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                             [](const Entry& e, NodeId key) { return e.id < key; });
  return (it != entries_.end() && it->id == id) ? it : entries_.end();
}

void DescendantsTable::Learn(NodeId descendant, NodeId via_child, SimTime now) {
  auto it = LowerBound(descendant);
  if (it != entries_.end() && it->id == descendant) {
    it->via_child = via_child;
    it->last_update = now;
    return;
  }
  if (static_cast<int>(entries_.size()) >= options_.capacity) {
    EvictOldest();
    it = LowerBound(descendant);  // Eviction shifted the tail.
  }
  entries_.insert(it, Entry{descendant, via_child, now});
}

std::optional<NodeId> DescendantsTable::NextHop(NodeId dst) const {
  auto it = Find(dst);
  if (it == entries_.end()) return std::nullopt;
  return it->via_child;
}

void DescendantsTable::ForgetChild(NodeId child) {
  std::erase_if(entries_, [child](const Entry& e) { return e.via_child == child; });
}

void DescendantsTable::EvictStale(SimTime now) {
  std::erase_if(entries_, [&](const Entry& e) {
    return now - e.last_update > options_.eviction_timeout;
  });
}

std::vector<NodeId> DescendantsTable::Ids() const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

void DescendantsTable::EvictOldest() {
  // Ascending-id scan with a strict comparison: the first (lowest-id)
  // entry wins a last_update tie.
  auto oldest = std::min_element(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.last_update < b.last_update; });
  if (oldest != entries_.end()) entries_.erase(oldest);
}

}  // namespace scoop::net

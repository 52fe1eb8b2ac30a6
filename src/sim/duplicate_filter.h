// Link-layer duplicate suppression for both radios (the sequential Radio
// and the sharded engine's ShardRadio), by (link_src, seq) (§5.1).
//
// A unicast whose ACK is lost goes out again with the same sequence
// number; its receiver must see the copy flagged so data paths can drop
// it. A reception is a duplicate iff the previous addressed reception over
// the same directed link carried the same seq. Receptions only happen over
// audible links, so the state is one int32 slot per link in the topology's
// CSR storage (Topology::link_index), -1 until the link first delivers --
// distinct from every 16-bit seq, including a wrapped 0. That is O(links)
// in total instead of an N-wide array per receiver, and the delivery walk
// over audible_from(src) touches `src`'s slots in storage order.
//
// Sharing: the sharded engine hands one filter to all of its shards. The
// slot of link src->r is only touched by the shard that owns r, so shards
// write disjoint slots and need no synchronization.
#ifndef SCOOP_SIM_DUPLICATE_FILTER_H_
#define SCOOP_SIM_DUPLICATE_FILTER_H_

#include <cstdint>
#include <vector>

#include "sim/topology.h"

namespace scoop::sim {

class DuplicateFilter {
 public:
  explicit DuplicateFilter(const Topology& topology)
      : last_seq_(topology.num_links(), -1) {}

  /// Records an addressed reception of `seq` over the link at CSR position
  /// `link`; true iff the link's previous addressed reception had the same
  /// seq. Overheard (snooped) frames must not be recorded.
  bool Observe(size_t link, uint16_t seq) {
    int32_t& slot = last_seq_[link];
    bool duplicate = (slot == seq);
    slot = seq;
    return duplicate;
  }

 private:
  std::vector<int32_t> last_seq_;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_DUPLICATE_FILTER_H_

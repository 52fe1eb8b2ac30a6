// Metrics registry: named counters, gauges, and log2 histograms sampled
// on a sim-time interval into a JSONL time series (`obs.metrics_out`).
//
// Hot-path contract: instrumentation sites resolve a `uint64_t*` once at
// wiring time (Counter() returns a stable pointer) and the per-event cost
// is a branch-on-null plus an increment. Name lookups never happen on the
// event path. Like TraceSink, a registry belongs to one engine thread;
// the sharded engine keeps one per shard and merges at export.
#ifndef SCOOP_OBS_METRICS_H_
#define SCOOP_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace scoop::obs {

/// Power-of-two-bucket histogram for microsecond-scale durations (CSMA
/// backoffs, queue occupancy). Bucket i counts values whose bit width is
/// i, i.e. v in [2^(i-1), 2^i); bucket 0 counts zeros.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;  ///< Covers up to ~2^39 us.

  void Record(uint64_t value) {
    int bucket = BitWidth(value);
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
    ++buckets_[bucket];
    ++count_;
    sum_ += value;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket(int i) const { return buckets_[i]; }
  /// Index of the highest non-empty bucket + 1 (0 when empty).
  int used_buckets() const;

  void MergeFrom(const Histogram& other);

 private:
  static int BitWidth(uint64_t v) {
    int w = 0;
    while (v != 0) {
      ++w;
      v >>= 1;
    }
    return w;
  }

  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// One engine thread's metrics: registration, periodic sampling, export.
class MetricsRegistry {
 public:
  /// Returns a stable pointer to the named counter (created on first use).
  /// Resolve once at wiring time; bump through the pointer on the hot path.
  uint64_t* Counter(const std::string& name);

  /// Returns the named histogram (created on first use); same contract.
  Histogram* Hist(const std::string& name);

  /// Registers a gauge read at every Sample() call (e.g. live queue depth).
  void Gauge(const std::string& name, std::function<uint64_t()> fn);

  /// Snapshots every counter, gauge, and histogram into one sample row
  /// stamped with sim time `now`. Called by the run loop, never from a
  /// scheduled simulator event, so sampling cannot perturb event order.
  void Sample(SimTime now);

  size_t sample_count() const { return rows_.size(); }

  /// Current value of a counter (0 when absent); for tests and reports.
  uint64_t CounterValue(const std::string& name) const;

 private:
  struct Row {
    SimTime t;
    std::string body;  ///< Pre-serialized JSON fields, sans time/shard.
  };

  friend std::string ExportMetricsJsonLines(
      const std::vector<const MetricsRegistry*>& registries);

  std::map<std::string, std::unique_ptr<uint64_t>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> hists_;
  std::map<std::string, std::function<uint64_t()>> gauges_;
  std::vector<Row> rows_;
};

/// Merges per-shard registries into a JSONL time series: one line per
/// (sample instant, shard), sorted by sample time then shard index, each
/// line `{"t_us":..., "shard":k, ...counters/gauges/hists...}`.
std::string ExportMetricsJsonLines(
    const std::vector<const MetricsRegistry*>& registries);

}  // namespace scoop::obs

#endif  // SCOOP_OBS_METRICS_H_

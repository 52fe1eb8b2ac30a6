#include "scenario/scenario_parser.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/types.h"
#include "workload/data_source.h"

namespace scoop::scenario {

namespace {

using harness::ExperimentConfig;

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// Built with append rather than operator+ chains: GCC 12's -O3 -Wrestrict
// false-positives on the `"'" + std::string(s) + "'"` pattern and SCOOP_WERROR
// turns that into a broken release build.
std::string Quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  out += s;
  out += '\'';
  return out;
}

// --- scalar value parsers -------------------------------------------------

Result<double> ParseDouble(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty()) return Status::InvalidArgument("expected a number, got an empty value");
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return Status::InvalidArgument("expected a number, got " + Quoted(text));
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty()) return Status::InvalidArgument("expected an integer, got an empty value");
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected an integer, got " + Quoted(text));
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer " + Quoted(text) + " does not fit in 64 bits");
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty() || buf[0] == '-') {
    return Status::InvalidArgument("expected a non-negative integer, got " + Quoted(text));
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected a non-negative integer, got " + Quoted(text));
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer " + Quoted(text) + " does not fit in 64 bits");
  }
  return static_cast<uint64_t>(v);
}

Result<bool> ParseBool(std::string_view text) {
  std::string_view v = TrimView(text);
  if (v == "on" || v == "true" || v == "yes" || v == "1") return true;
  if (v == "off" || v == "false" || v == "no" || v == "0") return false;
  return Status::InvalidArgument("expected on/off (or true/false), got " + Quoted(text));
}

/// Table-local shorthand for the shared shortest-round-trip formatter.
std::string FormatNumber(double v) { return FormatShortestDouble(v); }

// --- the key table --------------------------------------------------------

using Cfg = ExperimentConfig;

/// A field accessor: where in the config a key's value lives. Written once
/// against a mutable config; the writer reads through the same accessor.
template <typename T>
using Field = T* (*)(Cfg&);

/// An enum field seen through its values' indices, so one apply and one
/// format serve every enum: the values are walked 0, 1, 2, ... through the
/// enum's own *Name() function until it answers "?".
struct EnumField {
  int (*get)(Cfg&);
  void (*set)(Cfg*, int);
  const char* (*name)(int);
};

/// One scenario key: its name, kind, field and accepted range.
struct KeyDesc {
  const char* key;
  KeyKind kind;
  std::variant<Field<int>, Field<uint64_t>, Field<double>, Field<bool>, Field<SimTime>,
               Field<std::string>, EnumField>
      field;
  double lo = 0;  ///< kInt/kDouble: inclusive range; durations: [0, ten years].
  double hi = 0;
  bool allow_zero = false;  ///< Durations: whether 0 is accepted.
};

// Upper bound on any single duration value: one simulated decade. Keeps
// the microsecond conversion far inside llround()'s defined int64 range.
constexpr double kMaxDurationSeconds = 10.0 * 365 * 24 * 3600;
constexpr bool kZeroOk = true;
constexpr bool kPositive = false;

constexpr KeyDesc IntKey(const char* key, Field<int> f, int lo, int hi) {
  return {key, KeyKind::kInt, f, static_cast<double>(lo), static_cast<double>(hi)};
}
constexpr KeyDesc UintKey(const char* key, Field<uint64_t> f) {
  return {key, KeyKind::kUint, f};
}
constexpr KeyDesc RealKey(const char* key, Field<double> f, double lo, double hi) {
  return {key, KeyKind::kDouble, f, lo, hi};
}
constexpr KeyDesc BoolKey(const char* key, Field<bool> f) { return {key, KeyKind::kBool, f}; }
constexpr KeyDesc PathKey(const char* key, Field<std::string> f) {
  return {key, KeyKind::kPath, f};
}
constexpr KeyDesc TimeKey(KeyKind unit, const char* key, Field<SimTime> f, bool allow_zero) {
  double seconds_per_unit = unit == KeyKind::kMinutes   ? 60.0
                            : unit == KeyKind::kSeconds ? 1.0
                                                        : 0.001;
  return {key, unit, f, 0.0, kMaxDurationSeconds / seconds_per_unit, allow_zero};
}
/// `Name` is the enum's *Name() function and `Get` the type of a
/// captureless accessor lambda, which the generated functions rebuild
/// (C++20 closures without captures are default-constructible).
template <auto Name, typename Get>
constexpr KeyDesc EnumKey(const char* key, Get) {
  using E = std::remove_pointer_t<decltype(Get{}(std::declval<Cfg&>()))>;
  return {key, KeyKind::kEnum,
          EnumField{[](Cfg& c) { return static_cast<int>(*Get{}(c)); },
                    [](Cfg* c, int v) { *Get{}(*c) = static_cast<E>(v); },
                    [](int v) -> const char* { return Name(static_cast<E>(v)); }}};
}

using KeyKind::kMillis;
using KeyKind::kMinutes;
using KeyKind::kSeconds;

/// Every ExperimentConfig knob, in canonical writer order. One row per
/// key; the round-trip test walks this same table, so a knob cannot be
/// writable but not readable.
constexpr KeyDesc kKeys[] = {
    EnumKey<harness::PolicyName>("policy", [](Cfg& c) { return &c.policy; }),
    EnumKey<workload::DataSourceKindName>("source", [](Cfg& c) { return &c.source; }),
    EnumKey<harness::TopologyPresetName>("topology", [](Cfg& c) { return &c.preset; }),
    IntKey("nodes", [](Cfg& c) { return &c.num_nodes; }, 2, kMaxSupportedNodes),
    TimeKey(kMinutes, "duration_minutes", [](Cfg& c) { return &c.duration; }, kPositive),
    TimeKey(kMinutes, "stabilization_minutes", [](Cfg& c) { return &c.stabilization; },
            kZeroOk),
    TimeKey(kSeconds, "sample_interval_seconds", [](Cfg& c) { return &c.sample_interval; },
            kPositive),
    TimeKey(kSeconds, "summary_interval_seconds", [](Cfg& c) { return &c.summary_interval; },
            kPositive),
    TimeKey(kSeconds, "remap_interval_seconds", [](Cfg& c) { return &c.remap_interval; },
            kPositive),
    BoolKey("queries", [](Cfg& c) { return &c.queries_enabled; }),
    TimeKey(kSeconds, "query_interval_seconds", [](Cfg& c) { return &c.query_interval; },
            kPositive),
    IntKey("query_burst_size", [](Cfg& c) { return &c.query_burst_size; }, 1, 1000),
    TimeKey(kSeconds, "query_burst_spacing_seconds",
            [](Cfg& c) { return &c.query_burst_spacing; }, kPositive),
    EnumKey<harness::QueryModeName>("query_mode", [](Cfg& c) { return &c.query_mode; }),
    RealKey("query_width_lo", [](Cfg& c) { return &c.query_width_lo; }, 0.0, 1.0),
    RealKey("query_width_hi", [](Cfg& c) { return &c.query_width_hi; }, 0.0, 1.0),
    RealKey("node_list_fraction", [](Cfg& c) { return &c.node_list_fraction; }, 0.0, 1.0),
    TimeKey(kSeconds, "history_window_seconds", [](Cfg& c) { return &c.query_history_window; },
            kPositive),
    TimeKey(kMinutes, "summary_history_window_minutes",
            [](Cfg& c) { return &c.summary_history_window; }, kZeroOk),
    TimeKey(kMinutes, "summary_history_epoch_minutes",
            [](Cfg& c) { return &c.summary_history_epoch; }, kPositive),
    IntKey("trials", [](Cfg& c) { return &c.trials; }, 1, 10000),
    UintKey("seed", [](Cfg& c) { return &c.seed; }),
    IntKey("shards", [](Cfg& c) { return &c.shards; }, 0, 64),
    EnumKey<sim::PartitionKindName>("partition", [](Cfg& c) { return &c.partition; }),
    // Typed fault injection (src/fault/). The crash-stop keys write the
    // node_failure_* / failure_* config fields the harness has always read.
    RealKey("fault.crash_fraction", [](Cfg& c) { return &c.node_failure_fraction; }, 0.0, 1.0),
    TimeKey(kMinutes, "fault.crash_minute", [](Cfg& c) { return &c.failure_time; }, kZeroOk),
    IntKey("fault.crash_wave_count", [](Cfg& c) { return &c.failure_wave_count; }, 1, 1000),
    TimeKey(kMinutes, "fault.crash_wave_interval_minutes",
            [](Cfg& c) { return &c.failure_wave_interval; }, kPositive),
    RealKey("fault.reboot_fraction", [](Cfg& c) { return &c.fault.reboot_fraction; }, 0.0, 1.0),
    TimeKey(kMinutes, "fault.reboot_minute", [](Cfg& c) { return &c.fault.reboot_time; },
            kZeroOk),
    IntKey("fault.reboot_wave_count", [](Cfg& c) { return &c.fault.reboot_wave_count; }, 1,
           1000),
    TimeKey(kMinutes, "fault.reboot_wave_interval_minutes",
            [](Cfg& c) { return &c.fault.reboot_wave_interval; }, kPositive),
    TimeKey(kSeconds, "fault.reboot_downtime_seconds",
            [](Cfg& c) { return &c.fault.reboot_downtime; }, kPositive),
    RealKey("fault.link_degrade_factor", [](Cfg& c) { return &c.fault.link_degrade_factor; },
            0.0, 1.0),
    TimeKey(kMinutes, "fault.link_degrade_start_minute",
            [](Cfg& c) { return &c.fault.link_degrade_start; }, kZeroOk),
    TimeKey(kMinutes, "fault.link_degrade_end_minute",
            [](Cfg& c) { return &c.fault.link_degrade_end; }, kZeroOk),
    RealKey("fault.link_degrade_x_lo", [](Cfg& c) { return &c.fault.link_degrade_x_lo; }, 0.0,
            1.0),
    RealKey("fault.link_degrade_x_hi", [](Cfg& c) { return &c.fault.link_degrade_x_hi; }, 0.0,
            1.0),
    RealKey("fault.link_degrade_y_lo", [](Cfg& c) { return &c.fault.link_degrade_y_lo; }, 0.0,
            1.0),
    RealKey("fault.link_degrade_y_hi", [](Cfg& c) { return &c.fault.link_degrade_y_hi; }, 0.0,
            1.0),
    TimeKey(kMinutes, "fault.partition_start_minute",
            [](Cfg& c) { return &c.fault.partition_start; }, kZeroOk),
    TimeKey(kMinutes, "fault.partition_end_minute",
            [](Cfg& c) { return &c.fault.partition_end; }, kZeroOk),
    RealKey("fault.partition_x_lo", [](Cfg& c) { return &c.fault.partition_x_lo; }, 0.0, 1.0),
    RealKey("fault.partition_x_hi", [](Cfg& c) { return &c.fault.partition_x_hi; }, 0.0, 1.0),
    RealKey("fault.partition_y_lo", [](Cfg& c) { return &c.fault.partition_y_lo; }, 0.0, 1.0),
    RealKey("fault.partition_y_hi", [](Cfg& c) { return &c.fault.partition_y_hi; }, 0.0, 1.0),
    TimeKey(kMinutes, "fault.base_outage_start_minute",
            [](Cfg& c) { return &c.fault.base_outage_start; }, kZeroOk),
    TimeKey(kMinutes, "fault.base_outage_end_minute",
            [](Cfg& c) { return &c.fault.base_outage_end; }, kZeroOk),
    IntKey("fault.base_backup", [](Cfg& c) { return &c.fault.base_backup; }, 0,
           kMaxSupportedNodes),
    BoolKey("fault.orphan_rehoming", [](Cfg& c) { return &c.fault.orphan_rehoming; }),
    IntKey("fault.send_retry_max", [](Cfg& c) { return &c.fault.send_retry_max; }, 0, 100),
    TimeKey(kMillis, "fault.send_retry_backoff_ms",
            [](Cfg& c) { return &c.fault.send_retry_backoff; }, kPositive),
    IntKey("fault.query_reissue_max", [](Cfg& c) { return &c.fault.query_reissue_max; }, 0,
           100),
    IntKey("max_batch", [](Cfg& c) { return &c.max_batch; }, 1, 1000),
    BoolKey("neighbor_shortcut", [](Cfg& c) { return &c.enable_neighbor_shortcut; }),
    BoolKey("descendant_routing", [](Cfg& c) { return &c.enable_descendant_routing; }),
    RealKey("suppression_similarity", [](Cfg& c) { return &c.suppression_similarity; }, 0.0,
            1.0),
    BoolKey("consider_store_local", [](Cfg& c) { return &c.builder.consider_store_local; }),
    IntKey("owner_set", [](Cfg& c) { return &c.builder.owner_set_size; }, 1,
           kMaxSupportedNodes),
    IntKey("range_granularity", [](Cfg& c) { return &c.builder.range_granularity; }, 1,
           1 << 20),
    RealKey("owner_hysteresis", [](Cfg& c) { return &c.builder.owner_hysteresis; }, 0.0, 1.0),
    IntKey("domain_lo", [](Cfg& c) { return &c.source_options.domain_lo; }, -(1 << 30),
           1 << 30),
    IntKey("domain_hi", [](Cfg& c) { return &c.source_options.domain_hi; }, -(1 << 30),
           1 << 30),
    IntKey("equal_value", [](Cfg& c) { return &c.source_options.equal_value; }, -(1 << 30),
           1 << 30),
    RealKey("gaussian_variance", [](Cfg& c) { return &c.source_options.gaussian_variance; },
            0.0, 1e9),
    RealKey("gaussian_mean_skew", [](Cfg& c) { return &c.source_options.gaussian_mean_skew; },
            0.01, 100.0),
    IntKey("real_domain_hi", [](Cfg& c) { return &c.source_options.real_domain_hi; }, 1,
           1 << 30),
    RealKey("real_shared_weight", [](Cfg& c) { return &c.source_options.real_shared_weight; },
            0.0, 1.0),
    RealKey("real_correlation_meters",
            [](Cfg& c) { return &c.source_options.real_correlation_meters; }, 0.01, 1e6),
    RealKey("real_noise", [](Cfg& c) { return &c.source_options.real_noise; }, 0.0, 1e6),
    RealKey("energy_tx_nj_per_bit", [](Cfg& c) { return &c.energy.tx_nj_per_bit; }, 0.0, 1e9),
    RealKey("energy_rx_nj_per_bit", [](Cfg& c) { return &c.energy.rx_nj_per_bit; }, 0.0, 1e9),
    RealKey("energy_flash_write_nj_per_bit",
            [](Cfg& c) { return &c.energy.flash_write_nj_per_bit; }, 0.0, 1e9),
    RealKey("energy_battery_joules", [](Cfg& c) { return &c.energy.battery_joules; }, 0.0,
            1e12),
    // Observability (src/obs/).
    PathKey("obs.trace_out", [](Cfg& c) { return &c.trace_out; }),
    PathKey("obs.metrics_out", [](Cfg& c) { return &c.metrics_out; }),
    TimeKey(kSeconds, "obs.metrics_interval_seconds",
            [](Cfg& c) { return &c.metrics_interval; }, kPositive),
    BoolKey("obs.profile", [](Cfg& c) { return &c.profile; }),
};

/// A cross-field rule over two numeric rows of kKeys: the value of `lo`
/// must not exceed the value of `hi`. An inverted fault window or
/// rectangle would otherwise silently disable its fault.
struct OrderedPair {
  const char* lo;
  const char* hi;
};

constexpr OrderedPair kOrderedPairs[] = {
    {"query_width_lo", "query_width_hi"},
    {"domain_lo", "domain_hi"},
    {"fault.link_degrade_start_minute", "fault.link_degrade_end_minute"},
    {"fault.link_degrade_x_lo", "fault.link_degrade_x_hi"},
    {"fault.link_degrade_y_lo", "fault.link_degrade_y_hi"},
    {"fault.partition_start_minute", "fault.partition_end_minute"},
    {"fault.partition_x_lo", "fault.partition_x_hi"},
    {"fault.partition_y_lo", "fault.partition_y_hi"},
    {"fault.base_outage_start_minute", "fault.base_outage_end_minute"},
};

const KeyDesc* FindKey(std::string_view key) {
  for (const KeyDesc& desc : kKeys) {
    if (key == desc.key) return &desc;
  }
  return nullptr;
}

/// The word a duration kind's range message uses for its unit.
const char* UnitWord(KeyKind unit) {
  return unit == kMinutes ? "minutes" : unit == kSeconds ? "seconds" : "milliseconds";
}

/// "a|b|c": every value of an enum, walked through its *Name() function.
std::string EnumChoices(const EnumField& e) {
  std::string out;
  for (int i = 0; e.name(i)[0] != '?'; ++i) {
    if (i > 0) out += '|';
    out += e.name(i);
  }
  return out;
}

/// The accepted range in the words of the out-of-range message, e.g.
/// "in [2, 65534]" or "> 0 and at most ten years of minutes".
std::string RangeText(const KeyDesc& k) {
  switch (k.kind) {
    case KeyKind::kInt:
      return "in [" + std::to_string(static_cast<int64_t>(k.lo)) + ", " +
             std::to_string(static_cast<int64_t>(k.hi)) + "]";
    case KeyKind::kDouble:
      return "in [" + FormatNumber(k.lo) + ", " + FormatNumber(k.hi) + "]";
    case KeyKind::kMinutes:
    case KeyKind::kSeconds:
    case KeyKind::kMillis:
      return std::string(k.allow_zero ? ">= 0" : "> 0") + " and at most ten years of " +
             UnitWord(k.kind);
    default:
      return "";
  }
}

Status OutOfRange(const KeyDesc& k, std::string_view v) {
  return Status::OutOfRange(std::string(k.key) + " must be " + RangeText(k) + ", got " +
                            Quoted(TrimView(v)));
}

// Durations are stored as integer microseconds; parse by rounding (not
// truncating) so format -> parse is exact for every representable SimTime.
SimTime FromUnit(KeyKind unit, double v) {
  double us = unit == kMinutes   ? v * 60.0 * kSecond
              : unit == kSeconds ? v * kSecond
                                 : v * kMillisecond;
  return static_cast<SimTime>(std::llround(us));
}
double ToUnit(KeyKind unit, SimTime t) {
  return unit == kMinutes   ? ToSeconds(t) / 60.0
         : unit == kSeconds ? ToSeconds(t)
                            : ToSeconds(t) * 1000.0;
}

/// Parses `v` by the row's kind, checks the row's range, and stores it.
Status Apply(const KeyDesc& k, Cfg* c, std::string_view v) {
  switch (k.kind) {
    case KeyKind::kInt: {
      Result<int64_t> parsed = ParseInt(v);
      if (!parsed.ok()) return parsed.status();
      if (parsed.value() < static_cast<int64_t>(k.lo) ||
          parsed.value() > static_cast<int64_t>(k.hi)) {
        return OutOfRange(k, v);
      }
      *std::get<Field<int>>(k.field)(*c) = static_cast<int>(parsed.value());
      return Status::OK();
    }
    case KeyKind::kUint: {
      Result<uint64_t> parsed = ParseUint(v);
      if (!parsed.ok()) return parsed.status();
      *std::get<Field<uint64_t>>(k.field)(*c) = parsed.value();
      return Status::OK();
    }
    case KeyKind::kDouble: {
      Result<double> parsed = ParseDouble(v);
      if (!parsed.ok()) return parsed.status();
      if (parsed.value() < k.lo || parsed.value() > k.hi) return OutOfRange(k, v);
      *std::get<Field<double>>(k.field)(*c) = parsed.value();
      return Status::OK();
    }
    case KeyKind::kBool: {
      Result<bool> parsed = ParseBool(v);
      if (!parsed.ok()) return parsed.status();
      *std::get<Field<bool>>(k.field)(*c) = parsed.value();
      return Status::OK();
    }
    case KeyKind::kMinutes:
    case KeyKind::kSeconds:
    case KeyKind::kMillis: {
      Result<double> parsed = ParseDouble(v);
      if (!parsed.ok()) return parsed.status();
      double d = parsed.value();
      if (d < 0 || (!k.allow_zero && d == 0) || d > k.hi) return OutOfRange(k, v);
      *std::get<Field<SimTime>>(k.field)(*c) = FromUnit(k.kind, d);
      return Status::OK();
    }
    case KeyKind::kPath: {
      std::string_view s = TrimView(v);
      *std::get<Field<std::string>>(k.field)(*c) =
          (s == "off" || s == "none") ? std::string() : std::string(s);
      return Status::OK();
    }
    case KeyKind::kEnum: {
      const EnumField& e = std::get<EnumField>(k.field);
      std::string_view s = TrimView(v);
      for (int i = 0; e.name(i)[0] != '?'; ++i) {
        if (s == e.name(i)) {
          e.set(c, i);
          return Status::OK();
        }
      }
      return Status::InvalidArgument("unknown " + std::string(k.key) + " " + Quoted(v) +
                                     " (expected " + EnumChoices(e) + ")");
    }
  }
  return Status::Internal("unhandled key kind");
}

/// The value of a numeric row (int, double or duration), for comparisons.
double NumericValue(const KeyDesc& k, const Cfg& config) {
  Cfg& c = const_cast<Cfg&>(config);  // Accessors are only read through here.
  switch (k.kind) {
    case KeyKind::kInt:
      return *std::get<Field<int>>(k.field)(c);
    case KeyKind::kDouble:
      return *std::get<Field<double>>(k.field)(c);
    case KeyKind::kMinutes:
    case KeyKind::kSeconds:
    case KeyKind::kMillis:
      return static_cast<double>(*std::get<Field<SimTime>>(k.field)(c));
    default:
      SCOOP_CHECK(false);  // kOrderedPairs names numeric rows only.
  }
  return 0;
}

/// The row's current value in .scn spelling.
std::string Format(const KeyDesc& k, const Cfg& config) {
  Cfg& c = const_cast<Cfg&>(config);  // Accessors are only read through here.
  switch (k.kind) {
    case KeyKind::kInt:
      return std::to_string(*std::get<Field<int>>(k.field)(c));
    case KeyKind::kUint:
      return std::to_string(*std::get<Field<uint64_t>>(k.field)(c));
    case KeyKind::kDouble:
      return FormatNumber(*std::get<Field<double>>(k.field)(c));
    case KeyKind::kBool:
      return *std::get<Field<bool>>(k.field)(c) ? "on" : "off";
    case KeyKind::kMinutes:
    case KeyKind::kSeconds:
    case KeyKind::kMillis:
      return FormatNumber(ToUnit(k.kind, *std::get<Field<SimTime>>(k.field)(c)));
    case KeyKind::kPath: {
      const std::string& path = *std::get<Field<std::string>>(k.field)(c);
      return path.empty() ? "off" : path;
    }
    case KeyKind::kEnum: {
      const EnumField& e = std::get<EnumField>(k.field);
      return e.name(e.get(c));
    }
  }
  return "";
}

/// What the key accepts in words, for usage text.
std::string AcceptsText(const KeyDesc& k) {
  switch (k.kind) {
    case KeyKind::kInt:
      return "int " + RangeText(k);
    case KeyKind::kUint:
      return "uint64";
    case KeyKind::kDouble:
      return "number " + RangeText(k);
    case KeyKind::kBool:
      return "on|off";
    case KeyKind::kMinutes:
    case KeyKind::kSeconds:
    case KeyKind::kMillis:
      return std::string(UnitWord(k.kind)) + (k.allow_zero ? " >= 0" : " > 0");
    case KeyKind::kPath:
      return "path|off";
    case KeyKind::kEnum:
      return EnumChoices(std::get<EnumField>(k.field));
  }
  return "";
}

/// Expands a sweep value list: comma-separated tokens, where a lone
/// "lo..hi" token expands to the inclusive integer range.
Result<std::vector<std::string>> ExpandSweepValues(std::string_view text) {
  std::vector<std::string> values;
  size_t start = 0;
  std::string spec(text);
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view token =
        TrimView(std::string_view(spec).substr(start, comma == std::string::npos
                                                          ? std::string::npos
                                                          : comma - start));
    if (token.empty()) return Status::InvalidArgument("empty sweep value");
    size_t dots = token.find("..");
    bool is_range = dots != std::string_view::npos &&
                    token.find("..", dots + 1) == std::string_view::npos;
    if (is_range) {
      Result<int64_t> lo = ParseInt(token.substr(0, dots));
      Result<int64_t> hi = ParseInt(token.substr(dots + 2));
      if (!lo.ok() || !hi.ok() || lo.value() > hi.value()) {
        return Status::InvalidArgument("bad range " + Quoted(token) +
                                       " (expected 'lo..hi' with lo <= hi)");
      }
      // Unsigned subtraction: exact for lo <= hi even when the signed
      // difference would overflow (e.g. INT64_MIN..INT64_MAX).
      uint64_t span =
          static_cast<uint64_t>(hi.value()) - static_cast<uint64_t>(lo.value());
      if (span >= 100000) {
        return Status::OutOfRange("range " + Quoted(token) + " has more than 100000 values");
      }
      // Count iterations instead of comparing v <= hi: ++v past hi would
      // be signed overflow when hi == INT64_MAX.
      int64_t v = lo.value();
      for (uint64_t i = 0;; ++i) {
        values.push_back(std::to_string(v));
        if (i == span) break;
        ++v;
      }
    } else {
      values.emplace_back(token);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

/// Strips a trailing comment: " # ..." (hash preceded by whitespace).
std::string_view StripTrailingComment(std::string_view line) {
  for (size_t i = 1; i < line.size(); ++i) {
    if (line[i] == '#' && std::isspace(static_cast<unsigned char>(line[i - 1]))) {
      return line.substr(0, i);
    }
  }
  return line;
}

std::string Position(std::string_view origin, int line, size_t col) {
  return std::string(origin) + ":" + std::to_string(line) + ":" + std::to_string(col + 1) +
         ": ";
}

}  // namespace

std::string FormatShortestDouble(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

Status ValidateConfig(const harness::ExperimentConfig& config) {
  for (const OrderedPair& pair : kOrderedPairs) {
    const KeyDesc* lo = FindKey(pair.lo);
    const KeyDesc* hi = FindKey(pair.hi);
    SCOOP_CHECK(lo != nullptr && hi != nullptr);
    if (NumericValue(*lo, config) > NumericValue(*hi, config)) {
      return Status::InvalidArgument(std::string(pair.lo) + " must be <= " + pair.hi);
    }
  }
  if (config.fault.base_outage_end > config.fault.base_outage_start &&
      config.fault.base_backup != 0 &&
      config.fault.base_backup >= config.num_nodes) {
    return Status::InvalidArgument(
        "fault.base_backup must name an existing non-base node (< nodes)");
  }
  return Status::OK();
}

Status ApplyScenarioKey(harness::ExperimentConfig* config, std::string_view key,
                        std::string_view value) {
  const KeyDesc* desc = FindKey(key);
  if (desc == nullptr) return Status::NotFound("unknown key " + Quoted(key));
  return Apply(*desc, config, value);
}

std::vector<std::string> ScenarioKeyNames() {
  std::vector<std::string> names;
  for (const KeyDesc& desc : kKeys) names.emplace_back(desc.key);
  return names;
}

std::vector<KeySpec> ScenarioKeySpecs() {
  std::vector<KeySpec> specs;
  for (const KeyDesc& desc : kKeys) {
    specs.push_back({desc.key, desc.kind, desc.lo, desc.hi, desc.allow_zero, AcceptsText(desc)});
  }
  return specs;
}

std::vector<std::string> ScenarioOrderedPairRules() {
  std::vector<std::string> rules;
  for (const OrderedPair& pair : kOrderedPairs) {
    rules.push_back(std::string(pair.lo) + " <= " + pair.hi);
  }
  return rules;
}

Result<Scenario> ParseScenario(std::string_view text, std::string_view origin) {
  Scenario scenario;
  std::vector<std::string> seen_keys;
  bool have_name = false;

  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view raw = text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                                          : eol - pos);
    ++line_no;
    size_t line_start = pos;
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;

    std::string_view line = StripTrailingComment(raw);
    std::string_view trimmed = TrimView(line);
    if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == ';') continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(Position(origin, line_no, 0) +
                                     "expected 'key = value', got " + Quoted(trimmed));
    }
    std::string_view key = TrimView(line.substr(0, eq));
    std::string_view value = TrimView(line.substr(eq + 1));
    size_t key_col = text.find_first_not_of(" \t", line_start) - line_start;
    size_t value_col = eq + 1;
    while (value_col < line.size() &&
           std::isspace(static_cast<unsigned char>(line[value_col]))) {
      ++value_col;
    }
    if (key.empty()) {
      return Status::InvalidArgument(Position(origin, line_no, 0) + "missing key before '='");
    }
    if (value.empty()) {
      return Status::InvalidArgument(Position(origin, line_no, value_col) +
                                     "missing value for key " + Quoted(key));
    }
    if (std::find(seen_keys.begin(), seen_keys.end(), std::string(key)) != seen_keys.end()) {
      return Status::InvalidArgument(Position(origin, line_no, key_col) + "duplicate key " +
                                     Quoted(key));
    }
    seen_keys.emplace_back(key);

    if (key == "name") {
      scenario.name = std::string(value);
      have_name = true;
      continue;
    }
    if (key == "description") {
      scenario.description = std::string(value);
      continue;
    }
    if (key.substr(0, 6) == "sweep.") {
      std::string_view axis_key = key.substr(6);
      const KeyDesc* desc = FindKey(axis_key);
      if (desc == nullptr) {
        return Status::InvalidArgument(Position(origin, line_no, key_col) +
                                       "unknown sweep key " + Quoted(axis_key));
      }
      Result<std::vector<std::string>> values = ExpandSweepValues(value);
      if (!values.ok()) {
        return Status::InvalidArgument(Position(origin, line_no, value_col) +
                                       values.status().message());
      }
      // Validate every axis value now, against one scratch config (each
      // apply overwrites the same field), so sweep typos fail at parse
      // time instead of mid-campaign.
      ExperimentConfig scratch = scenario.base;
      for (const std::string& v : values.value()) {
        Status s = Apply(*desc, &scratch, v);
        if (!s.ok()) {
          return Status::InvalidArgument(Position(origin, line_no, value_col) + "sweep " +
                                         Quoted(axis_key) + ": " + s.message());
        }
      }
      scenario.sweeps.push_back(SweepAxis{std::string(axis_key), std::move(values).value()});
      continue;
    }

    const KeyDesc* desc = FindKey(key);
    if (desc == nullptr) {
      return Status::InvalidArgument(Position(origin, line_no, key_col) + "unknown key " +
                                     Quoted(key));
    }
    Status s = Apply(*desc, &scenario.base, value);
    if (!s.ok()) {
      return Status::InvalidArgument(Position(origin, line_no, value_col) + s.message());
    }
  }

  if (!have_name) {
    return Status::InvalidArgument(std::string(origin) + ": missing required key 'name'");
  }
  Status valid = ValidateConfig(scenario.base);
  if (!valid.ok()) {
    return Status::InvalidArgument(std::string(origin) + ": " + valid.message());
  }
  return scenario;
}

std::string FormatScenario(const Scenario& scenario) {
  // Newlines and whitespace-preceded '#' cannot appear in a .scn value
  // (they would end the value or start a comment), so sanitize free-text
  // fields to keep the emitted file parseable.
  auto sanitize = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (c == '\n' || c == '\r' || c == '\t') c = ' ';
      if (c == '#' && (out.empty() || out.back() == ' ')) continue;
      out += c;
    }
    return std::string(TrimView(out));
  };
  std::string out;
  std::string name = sanitize(scenario.name);
  out += "name = " + (name.empty() ? "unnamed" : name) + "\n";
  if (!scenario.description.empty()) {
    std::string description = sanitize(scenario.description);
    if (!description.empty()) out += "description = " + description + "\n";
  }
  for (const KeyDesc& desc : kKeys) {
    out += std::string(desc.key) + " = " + Format(desc, scenario.base) + "\n";
  }
  for (const SweepAxis& axis : scenario.sweeps) {
    out += "sweep." + axis.key + " = ";
    for (size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ", ";
      out += axis.values[i];
    }
    out += "\n";
  }
  return out;
}

}  // namespace scoop::scenario

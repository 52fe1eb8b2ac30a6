// Parser and writer for the ".scn" scenario format: a dependency-free
// INI-style text format covering every ExperimentConfig knob.
//
//   # Figure 3 (middle), as a scenario.
//   name = fig3_middle
//   description = Scoop vs LOCAL, HASH, BASE over the REAL trace
//   source = real                  # real|unique|equal|random|gaussian
//   topology = random              # testbed|random|grid
//   sweep.policy = scoop, local, hash, base
//   sweep.seed = 1..4              # integer ranges expand inclusively
//
// One `key = value` per line; `#` (whole-line or trailing) and `;`
// (whole-line) start comments. Errors carry "<origin>:<line>:<col>"
// positions. `sweep.<key>` declares a sweep axis over any scalar key;
// values are comma-separated, or `lo..hi` for inclusive integer ranges.
#ifndef SCOOP_SCENARIO_SCENARIO_PARSER_H_
#define SCOOP_SCENARIO_SCENARIO_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "scenario/scenario.h"

namespace scoop::scenario {

/// Parses `text` as a .scn scenario. `origin` (a file name or "<registry>")
/// prefixes every diagnostic. Requires a `name` key; rejects unknown keys,
/// duplicate keys, malformed values, and out-of-range settings.
Result<Scenario> ParseScenario(std::string_view text, std::string_view origin = "<string>");

/// Applies one scenario key to a config (`nodes = 63`). This is the same
/// key table the parser uses, exposed so the campaign runner can apply
/// sweep-axis values and the CLIs their `--<key>=<value>` flags; errors
/// carry no position prefix.
Status ApplyScenarioKey(harness::ExperimentConfig* config, std::string_view key,
                        std::string_view value);

/// Cross-field invariants (query_width_lo <= query_width_hi, domain_lo <=
/// domain_hi) that single-key setters cannot enforce. ParseScenario applies
/// this to the base config and the campaign runner to every sweep-expanded
/// combo, so a sweep cannot smuggle in an invalid configuration.
Status ValidateConfig(const harness::ExperimentConfig& config);

/// All recognized config keys, in canonical (writer) order.
std::vector<std::string> ScenarioKeyNames();

/// How a key's value is spelled. Durations are decimal numbers in the
/// named unit; kPath values are file paths, with "off" (or "none") for
/// disabled because a .scn value cannot be empty.
enum class KeyKind { kInt, kUint, kDouble, kBool, kMinutes, kSeconds, kMillis, kPath, kEnum };

/// One row of the key table, as usage text and table-driven tests see it.
struct KeySpec {
  std::string name;
  KeyKind kind = KeyKind::kInt;
  /// Numeric kinds: the inclusive range. Durations run from 0 (accepted
  /// only when `allow_zero`) to ten years in the key's unit.
  double lo = 0;
  double hi = 0;
  bool allow_zero = false;
  /// The accepted values in words, e.g. "int in [2, 65534]", "minutes > 0"
  /// or "scoop|local|base|hash|hash-sim".
  std::string accepts;
};

/// Every key's spec, in ScenarioKeyNames() order.
std::vector<KeySpec> ScenarioKeySpecs();

/// Serializes a scenario back to .scn text emitting every config key, such
/// that ParseScenario(FormatScenario(s)) reproduces `s` exactly. The one
/// exception: newlines and comment-starting '#' are not representable in
/// .scn values, so they are replaced with spaces / stripped from the name
/// and description.
std::string FormatScenario(const Scenario& scenario);

/// Shortest decimal string that strtod parses back to exactly `v`. Shared
/// by the .scn writer and the CSV/JSON reporters: it depends only on the
/// double's bits, which is what makes their output thread-count-invariant.
std::string FormatShortestDouble(double v);

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_SCENARIO_PARSER_H_

// Shared command-line handling for the tools: their own --flag / --flag=value
// options, and `--<scenario key>=<value>` for every .scn key.
#ifndef SCOOP_TOOLS_CLI_FLAGS_H_
#define SCOOP_TOOLS_CLI_FLAGS_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "harness/experiment.h"
#include "scenario/scenario_parser.h"

namespace scoop::tools {

/// Matches `arg` against `--name` (then *value = nullptr) or `--name=...`
/// (then *value points at the text after '='). Returns false otherwise.
inline bool MatchFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// Applies `--<key>=<value>` to `config` through the scenario key table.
/// On failure prints the reason to stderr and returns false.
inline bool ApplyKeyFlag(harness::ExperimentConfig* config, std::string_view arg) {
  size_t eq = arg.find('=');
  if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
    std::fprintf(stderr, "error: expected --<key>=<value>, got '%.*s'\n",
                 static_cast<int>(arg.size()), arg.data());
    return false;
  }
  Status s = scenario::ApplyScenarioKey(config, arg.substr(2, eq - 2), arg.substr(eq + 1));
  if (!s.ok()) {
    std::fprintf(stderr, "error: %.*s: %s\n", static_cast<int>(arg.size()), arg.data(),
                 s.message().c_str());
  }
  return s.ok();
}

/// One line per scenario key, then one per ordered-pair rule, generated
/// from the key tables.
inline void PrintKeyFlags(std::FILE* out) {
  for (const scenario::KeySpec& spec : scenario::ScenarioKeySpecs()) {
    std::fprintf(out, "  --%-38s %s\n", spec.name.c_str(), spec.accepts.c_str());
  }
  std::fprintf(out, "\nKey pairs that must stay ordered:\n");
  for (const std::string& rule : scenario::ScenarioOrderedPairRules()) {
    std::fprintf(out, "  %s\n", rule.c_str());
  }
}

}  // namespace scoop::tools

#endif  // SCOOP_TOOLS_CLI_FLAGS_H_

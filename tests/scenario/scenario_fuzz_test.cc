// Seeded mutation fuzzing of the .scn parser. Every registered scenario's
// text is mutated (byte flips, inserts, deletes, line splices) under a fixed
// seed and iteration budget, so a failure reproduces exactly. The parser
// must never crash, and every text it accepts must reach a fixed point:
// FormatScenario(ParseScenario(FormatScenario(s))) == FormatScenario(s),
// with every sweep value preserved.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"

namespace scoop::scenario {
namespace {

constexpr uint64_t kSeed = 20070415;
constexpr int kIterations = 20000;

// Bytes a mutation inserts: mostly the grammar's own punctuation, digits
// and whitespace, plus a few that no .scn text should contain.
constexpr std::string_view kAlphabet = "=#;,.-_ \t\n\r0123456789eabfnosx\x7f\x01";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t eol = text.find('\n', start);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(start, eol - start + 1));
    start = eol + 1;
  }
  return lines;
}

/// Applies one random mutation to `text`. `donor` supplies spliced lines.
void Mutate(Rng& rng, const std::string& donor, std::string* text) {
  auto pos = [&](size_t size) { return static_cast<size_t>(rng.UniformInt(0, size)); };
  switch (rng.UniformInt(0, 3)) {
    case 0:  // Flip one bit of one byte.
      if (!text->empty()) {
        (*text)[pos(text->size() - 1)] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
      }
      break;
    case 1:  // Insert a byte.
      text->insert(pos(text->size()), 1,
                   kAlphabet[static_cast<size_t>(rng.UniformInt(0, kAlphabet.size() - 1))]);
      break;
    case 2:  // Delete a short run.
      if (!text->empty()) {
        size_t at = pos(text->size() - 1);
        text->erase(at, static_cast<size_t>(rng.UniformInt(1, 8)));
      }
      break;
    default: {  // Splice a donor line in at a line boundary.
      std::vector<std::string> lines = Lines(*text);
      std::vector<std::string> donor_lines = Lines(donor);
      if (donor_lines.empty()) break;
      const std::string& line =
          donor_lines[static_cast<size_t>(rng.UniformInt(0, donor_lines.size() - 1))];
      lines.insert(lines.begin() + static_cast<ptrdiff_t>(pos(lines.size())), line);
      text->clear();
      for (const std::string& l : lines) *text += l;
      break;
    }
  }
}

TEST(ScenarioFuzzTest, MutatedRegistryTextsNeverCrashAndAcceptedOnesRoundTrip) {
  size_t count = 0;
  const RegistryEntry* entries = RegisteredScenarios(&count);
  ASSERT_GT(count, 0u);
  // Formatted texts carry every key, so they are splice donors too.
  std::vector<std::string> donors;
  for (size_t i = 0; i < count; ++i) {
    donors.emplace_back(entries[i].spec);
    Result<Scenario> parsed = ParseScenario(entries[i].spec, entries[i].name);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    donors.push_back(FormatScenario(parsed.value()));
  }

  Rng rng(kSeed);
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string text = donors[static_cast<size_t>(iter) % donors.size()];
    int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      Mutate(rng, donors[static_cast<size_t>(rng.UniformInt(0, donors.size() - 1))], &text);
    }
    Result<Scenario> first = ParseScenario(text, "fuzz.scn");
    if (!first.ok()) continue;
    ++accepted;
    std::string formatted = FormatScenario(first.value());
    Result<Scenario> second = ParseScenario(formatted, "fuzz-formatted.scn");
    ASSERT_TRUE(second.ok()) << "iteration " << iter << ": formatted text rejected: "
                             << second.status().ToString() << "\ninput:\n"
                             << text << "\nformatted:\n"
                             << formatted;
    ASSERT_EQ(FormatScenario(second.value()), formatted) << "iteration " << iter
                                                         << "\ninput:\n"
                                                         << text;
    // Sweep values pass through the writer verbatim, so none may be lost.
    const std::vector<SweepAxis>& axes = first.value().sweeps;
    ASSERT_EQ(second.value().sweeps.size(), axes.size()) << "iteration " << iter;
    for (size_t a = 0; a < axes.size(); ++a) {
      EXPECT_EQ(second.value().sweeps[a].key, axes[a].key) << "iteration " << iter;
      EXPECT_EQ(second.value().sweeps[a].values, axes[a].values) << "iteration " << iter;
    }
  }
  // Both outcomes must be exercised, or the mutations are too weak (all
  // accepted) or too strong (nothing reaches the round trip).
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

}  // namespace
}  // namespace scoop::scenario

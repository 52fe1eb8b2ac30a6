// perfbench_unit: one fixed-work unit of the benchmark. A unit is one
// registered scenario at one seed, from scenario load through the CSV
// report, run in its own process so that run.py sees its exit code and
// its peak memory.
//
//   perfbench_unit --scenario=NAME --seed=N [--metrics-dir=DIR] [--KEY=VALUE ...]
//
// Every other --KEY=VALUE sets that .scn key on the scenario's base config
// (e.g. --shards=4 --partition=mincut --trials=3). With --metrics-dir the
// unit is traced: every trial runs with the sim profiler on and writes its
// metrics-registry JSONL to DIR/c<combo>-t<trial>.jsonl. The unit prints
// one JSON object on stdout.
//
// Seeds: the scenario's base seed becomes N, and each value v of a
// `sweep.seed` axis becomes MixSeed(N, v), so one N names every input of
// the unit. Trial t of a combo runs at MixSeed(combo seed, t), as in
// RunExperiment and RunCampaign.
//
// Timed spans sit around the calls the unit makes into each layer's public
// functions; nothing inside src/ is instrumented here. The set-up calls
// (scenario load/expand, topology build, partition, fault plan) are what
// RunAnyTrial also does internally; timing them from outside prices that
// layer without touching the trial.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"
#include "sim/partition.h"
#include "sim/topology.h"

namespace {

using Clock = std::chrono::steady_clock;
using scoop::harness::ExperimentConfig;
using scoop::harness::ExperimentResult;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_unit: %s\n", message.c_str());
  std::exit(2);
}

struct Options {
  std::string scenario;
  std::string seed;
  std::vector<std::pair<std::string, std::string>> overrides;  ///< .scn keys.
  std::string metrics_dir;  ///< Non-empty = traced unit.
};

/// Set-up passes per unit (the first inside the timed unit); setup_s is
/// their median.
constexpr int kSetupPasses = 5;

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      Fail("expected --key=value, got '" + std::string(arg) + "'");
    }
    std::string key(arg.substr(2, eq - 2));
    std::string value(arg.substr(eq + 1));
    if (key == "scenario") {
      opt.scenario = value;
    } else if (key == "seed") {
      opt.seed = value;
    } else if (key == "metrics-dir") {
      opt.metrics_dir = value;
    } else {
      opt.overrides.emplace_back(key, value);
    }
  }
  if (opt.scenario.empty() || opt.seed.empty()) Fail("--scenario and --seed are required");
  return opt;
}

/// A number measured from anything but an optimized, uninstrumented build
/// describes a different program, so the unit refuses to run at all.
void RequireReleaseBuild() {
  std::string_view build_type = PERFBENCH_BUILD_TYPE;
  std::string_view sanitize = PERFBENCH_SANITIZE;
  bool sanitized = !sanitize.empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  bool optimized = false;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  optimized = true;
#endif
  if (build_type != "Release" || sanitized || !optimized) {
    Fail("refusing to measure a '" + std::string(build_type) + "' build" +
         (sanitized ? " with sanitizers" : "") + "; configure with CMAKE_BUILD_TYPE=Release");
  }
}

/// The scenario with the unit's overrides and seeds applied, and its
/// expansion into combos.
struct Loaded {
  scoop::scenario::Scenario scenario;
  std::vector<scoop::scenario::ExpandedRun> runs;
};

Loaded Load(const Options& opt) {
  auto parsed = scoop::scenario::LoadRegisteredScenario(opt.scenario);
  if (!parsed.ok()) Fail(parsed.status().ToString());
  Loaded loaded{std::move(parsed).value(), {}};
  scoop::scenario::Scenario& sc = loaded.scenario;
  std::vector<std::pair<std::string, std::string>> keys = opt.overrides;
  keys.emplace_back("seed", opt.seed);
  for (const auto& [key, value] : keys) {
    scoop::Status s = scoop::scenario::ApplyScenarioKey(&sc.base, key, value);
    if (!s.ok()) Fail(key + "=" + value + ": " + s.ToString());
  }
  for (scoop::scenario::SweepAxis& axis : sc.sweeps) {
    if (axis.key != "seed") continue;
    for (std::string& v : axis.values) {
      v = std::to_string(scoop::MixSeed(sc.base.seed, std::strtoull(v.c_str(), nullptr, 10)));
    }
  }
  auto runs = scoop::scenario::ExpandScenario(sc);
  if (!runs.ok()) Fail(runs.status().ToString());
  loaded.runs = std::move(runs).value();
  return loaded;
}

/// Mirrors the harness's (private) config -> topology generator mapping.
scoop::sim::Topology MakeTopology(const ExperimentConfig& config, uint64_t seed) {
  using scoop::harness::TopologyPreset;
  if (config.preset == TopologyPreset::kTestbed) {
    scoop::sim::TestbedTopologyOptions opts;
    opts.num_nodes = config.num_nodes;
    opts.seed = seed;
    return scoop::sim::Topology::MakeTestbed(opts);
  }
  if (config.preset == TopologyPreset::kGrid) {
    scoop::sim::GridTopologyOptions opts;
    opts.num_nodes = config.num_nodes;
    opts.seed = seed;
    return scoop::sim::Topology::MakeGrid(opts);
  }
  scoop::sim::RandomTopologyOptions opts;
  opts.num_nodes = config.num_nodes;
  opts.seed = seed;
  return scoop::sim::Topology::MakeRandom(opts);
}

/// Host time and outputs of one pass over every trial's set-up calls.
struct Setup {
  double load_s = 0;
  double topology_s = 0;
  double partition_s = 0;
  double fault_s = 0;
  uint64_t audible_links = 0;
  uint64_t cut_edges = 0;
  double imbalance = 0;  ///< Summed over trials; run.py averages.
  uint64_t fault_events = 0;

  double trial_setup_s() const { return topology_s + partition_s + fault_s; }
  double total_s() const { return load_s + trial_setup_s(); }
};

uint64_t TrialSeed(const ExperimentConfig& config, int trial) {
  return scoop::MixSeed(config.seed, static_cast<uint64_t>(trial));
}

void TimeTrialSetup(const ExperimentConfig& config, uint64_t seed, Setup* setup) {
  Clock::time_point t0 = Clock::now();
  scoop::sim::Topology topology = MakeTopology(config, seed);
  setup->topology_s += SecondsSince(t0);
  for (int i = 0; i < topology.num_nodes(); ++i) {
    setup->audible_links += topology.audible_from(static_cast<scoop::NodeId>(i)).size();
  }

  if (config.shards != 1) {
    const int k = scoop::harness::ResolvedShards(config);
    Clock::time_point t1 = Clock::now();
    std::vector<int> owner = scoop::sim::PartitionNodes(topology, k, config.partition);
    uint64_t cut = scoop::sim::CutEdges(topology, owner);
    setup->partition_s += SecondsSince(t1);
    setup->cut_edges += cut;
    setup->imbalance += scoop::sim::PartitionImbalance(owner, k);
  }

  scoop::fault::LegacyCrashWaves legacy;
  legacy.fraction = config.node_failure_fraction;
  legacy.at = config.failure_time;
  legacy.wave_count = config.failure_wave_count;
  legacy.wave_interval = config.failure_wave_interval;
  Clock::time_point t2 = Clock::now();
  scoop::fault::FaultPlan plan =
      scoop::fault::BuildFaultPlan(config.fault, legacy, topology, config.num_nodes, seed);
  setup->fault_s += SecondsSince(t2);
  setup->fault_events += plan.events.size();
}

/// One full set-up pass: load/expand plus every trial's set-up calls.
Setup TimeSetup(const Options& opt, Loaded* loaded) {
  Setup setup;
  Clock::time_point t0 = Clock::now();
  *loaded = Load(opt);
  setup.load_s = SecondsSince(t0);
  for (const scoop::scenario::ExpandedRun& run : loaded->runs) {
    for (int t = 0; t < run.config.trials; ++t) {
      TimeTrialSetup(run.config, TrialSeed(run.config, t), &setup);
    }
  }
  return setup;
}

uint64_t Fnv1a64(std::string_view text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss:
/// that keeps the forking parent's high-water mark across exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fail("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) Fail("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void Field(const char* name, double value) { std::printf(",\"%s\":%.17g", name, value); }

}  // namespace

int main(int argc, char** argv) {
  RequireReleaseBuild();
  const Options opt = ParseArgs(argc, argv);

  // --- The timed unit: set-up through collected results. ---
  Clock::time_point unit_start = Clock::now();
  Loaded loaded;
  Setup setup = TimeSetup(opt, &loaded);

  scoop::scenario::CampaignResult campaign;
  campaign.scenario_name = loaded.scenario.name;
  campaign.description = loaded.scenario.description;
  for (const scoop::scenario::SweepAxis& axis : loaded.scenario.sweeps) {
    campaign.axis_keys.push_back(axis.key);
  }
  campaign.rows.resize(loaded.runs.size());

  double trial_s = 0;
  for (size_t c = 0; c < loaded.runs.size(); ++c) {
    ExperimentConfig config = loaded.runs[c].config;
    for (int t = 0; t < config.trials; ++t) {
      if (!opt.metrics_dir.empty()) {
        config.profile = true;
        config.metrics_out =
            opt.metrics_dir + "/c" + std::to_string(c) + "-t" + std::to_string(t) + ".jsonl";
      }
      Clock::time_point t0 = Clock::now();
      ExperimentResult r = scoop::harness::RunAnyTrial(config, TrialSeed(config, t));
      trial_s += SecondsSince(t0);
      campaign.rows[c].trials.push_back(std::move(r));
      // Hand the trial's freed heap back to the OS, so that peak_rss_mb is
      // the largest single trial's footprint and not how glibc's arenas
      // happened to fragment over the unit's earlier trials.
      malloc_trim(0);
    }
  }

  Clock::time_point collect_start = Clock::now();
  for (size_t c = 0; c < loaded.runs.size(); ++c) {
    scoop::scenario::CampaignRow& row = campaign.rows[c];
    row.axes = loaded.runs[c].axes;
    row.config = loaded.runs[c].config;
    row.mean = scoop::harness::AggregateTrials(row.trials);
  }
  const double collect_s = SecondsSince(collect_start);

  Clock::time_point report_start = Clock::now();
  const std::string csv = scoop::scenario::CampaignCsv(campaign);
  const uint64_t csv_hash = Fnv1a64(csv);
  const double report_s = SecondsSince(report_start);
  const double wall_s = SecondsSince(unit_start);
  const double peak_rss_mb = PeakRssMb();

  // --- Untimed: more set-up passes for a steady setup_s median. ---
  std::vector<double> setup_passes{setup.total_s()};
  for (int pass = 1; pass < kSetupPasses; ++pass) {
    Loaded discarded;
    setup_passes.push_back(TimeSetup(opt, &discarded).total_s());
  }

  std::vector<ExperimentResult> all;
  for (const scoop::scenario::CampaignRow& row : campaign.rows) {
    all.insert(all.end(), row.trials.begin(), row.trials.end());
  }
  double min_readings = all.front().readings_produced;
  double min_queries = all.front().queries_issued;
  for (const ExperimentResult& r : all) {
    min_readings = std::min(min_readings, r.readings_produced);
    min_queries = std::min(min_queries, r.queries_issued);
  }
  // Per-trial means over every trial of the unit; run.py scales the
  // per-layer totals by `trials`.
  const ExperimentResult mean = scoop::harness::AggregateTrials(all);

  std::printf("{\"build_type\":\"%s\",\"csv_hash\":\"%016" PRIx64 "\"", PERFBENCH_BUILD_TYPE,
              csv_hash);
  std::printf(",\"setup_passes_s\":[");
  for (size_t i = 0; i < setup_passes.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", setup_passes[i]);
  }
  std::printf("]");
  Field("trials", static_cast<double>(all.size()));
  Field("wall_s", wall_s);
  Field("load_s", setup.load_s);
  Field("topology_s", setup.topology_s);
  Field("partition_s", setup.partition_s);
  Field("fault_s", setup.fault_s);
  Field("trial_setup_s", setup.trial_setup_s());
  Field("trial_s", trial_s);
  Field("collect_s", collect_s);
  Field("report_s", report_s);
  Field("peak_rss_mb", peak_rss_mb);
  Field("audible_links", static_cast<double>(setup.audible_links));
  Field("cut_edges", static_cast<double>(setup.cut_edges));
  Field("imbalance_sum", setup.imbalance);
  Field("fault_events", static_cast<double>(setup.fault_events));
  Field("min_readings_produced", min_readings);
  Field("min_queries_issued", min_queries);
  Field("msgs_excl_beacons", mean.total_excl_beacons);
  Field("query_success", mean.query_success);
  for (int t = 0; t < scoop::kNumPacketTypes; ++t) {
    std::string name = "sent.";
    name += scoop::PacketTypeName(static_cast<scoop::PacketType>(t));
    Field(name.c_str(), mean.sent_by_type[static_cast<size_t>(t)]);
  }
  Field("retransmissions", mean.retransmissions);
  Field("mac_drops", mean.mac_drops);
  Field("indices_built", mean.indices_built);
  Field("indices_disseminated", mean.indices_disseminated);
  Field("indices_suppressed", mean.indices_suppressed);
  Field("sim_events", mean.sim_events);
  Field("wheel_absorbed", mean.queue_wheel_absorbed);
  Field("wheel_spilled", mean.queue_wheel_spilled);
  Field("profile_queue_s", mean.profile_queue_seconds);
  Field("profile_radio_s", mean.profile_radio_seconds);
  Field("profile_agent_s", mean.profile_agent_seconds);
  Field("profile_shard_sync_s", mean.profile_shard_sync_seconds);
  Field("profile_other_s", mean.profile_other_seconds);
  Field("resolved_shards", mean.resolved_shards);
  Field("shard_stall_us", mean.shard_stall_us);
  Field("shard_stall_episodes", mean.shard_stall_episodes);
  Field("shard_mirrored_frames", mean.shard_mirrored_frames);
  std::printf("}\n");
  return 0;
}

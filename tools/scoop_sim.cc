// scoop_sim: command-line experiment runner.
//
//   scoop_sim [--<key>=<value> ...] [-v|-vv]
//   scoop_sim --help
//
// Every scenario key is a flag (`--nodes=63 --duration_minutes=40
// --topology=testbed`), applied through the same table as .scn files and
// checked by the same cross-field rules. Prints the message breakdown and
// success metrics for the configured run.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "scenario/scenario_parser.h"

#include "cli_flags.h"

namespace {

using namespace scoop;

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--<key>=<value> ...] [-v | -vv]\n"
               "       %s --help\n"
               "\n"
               "Runs one experiment. -v / -vv log info / debug to stderr. Every\n"
               "scenario key is a flag; unset keys keep the paper's defaults:\n",
               argv0, argv0);
  tools::PrintKeyFlags(out);
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  int verbosity = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-v") == 0) {
      verbosity = 1;
    } else if (std::strcmp(arg, "-vv") == 0) {
      verbosity = 2;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else if (!tools::ApplyKeyFlag(&config, arg)) {
      std::fprintf(stderr, "run '%s --help' for the key list\n", argv[0]);
      return 2;
    }
  }
  Status valid = scenario::ValidateConfig(config);
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 2;
  }
  SetLogLevel(LogLevelForVerbosity(verbosity));

  harness::ExperimentResult r = harness::RunExperiment(config);

  std::printf("policy=%s source=%s nodes=%d minutes=%.0f trials=%d seed=%llu\n\n",
              harness::PolicyName(config.policy),
              workload::DataSourceKindName(config.source), config.num_nodes,
              ToSeconds(config.duration) / 60, config.trials,
              static_cast<unsigned long long>(config.seed));

  harness::TablePrinter messages({"data", "summary", "mapping", "query", "reply",
                                  "total(excl beacons)", "retx"});
  messages.AddRow(
      {harness::FormatCount(r.data()), harness::FormatCount(r.summary()),
       harness::FormatCount(r.mapping()),
       harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kQuery)]),
       harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kReply)]),
       harness::FormatCount(r.total_excl_beacons),
       harness::FormatCount(r.retransmissions)});
  messages.Print();

  std::printf("\n");
  harness::TablePrinter health({"stored", "owner-hit", "q-success", "summaries@base",
                                "%nodes-queried", "indices(diss/supp)"});
  health.AddRow({harness::FormatPercent(r.storage_success),
                 harness::FormatPercent(r.owner_hit_rate),
                 harness::FormatPercent(r.query_success),
                 harness::FormatPercent(r.summary_delivery),
                 harness::FormatPercent(r.avg_pct_nodes_queried),
                 harness::FormatCount(r.indices_disseminated) + "/" +
                     harness::FormatCount(r.indices_suppressed)});
  health.Print();

  if (config.profile) {
    std::printf("\n");
    harness::TablePrinter prof({"bucket", "wall-seconds"});
    const struct {
      const char* name;
      double seconds;
    } buckets[] = {
        {"queue", r.profile_queue_seconds},       {"radio", r.profile_radio_seconds},
        {"agent", r.profile_agent_seconds},       {"shard-sync", r.profile_shard_sync_seconds},
        {"other", r.profile_other_seconds},
    };
    char cell[32];
    for (const auto& b : buckets) {
      std::snprintf(cell, sizeof(cell), "%.3f", b.seconds);
      prof.AddRow({b.name, cell});
    }
    prof.Print();
  }
  return 0;
}

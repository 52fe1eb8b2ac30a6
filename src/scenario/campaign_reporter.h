// Structured output for campaign results: the existing aligned-table
// format plus machine-readable CSV (one row per trial and a "mean" row per
// combo) and JSON-lines (one object per combo). All three render from the
// same metric-column table so a metric cannot appear in one format and
// silently miss another.
#ifndef SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_
#define SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_

#include <cstddef>
#include <string>

#include "harness/experiment.h"
#include "scenario/campaign.h"

namespace scoop::scenario {

/// One named metric read out of an ExperimentResult.
struct MetricColumn {
  const char* name;
  double (*get)(const harness::ExperimentResult&);
};

/// The full metric-column table, in canonical order.
const MetricColumn* MetricColumns(size_t* count);

/// Human-readable summary table (the benches' format): one row per combo,
/// axis columns plus the Figure 3 headline metrics.
std::string CampaignTable(const CampaignResult& result);

/// CSV: header, then per-combo one row per trial (trial = 0..k-1) followed
/// by the trial-averaged row (trial = mean). Deterministic byte-for-byte
/// for a given scenario, at any thread count.
std::string CampaignCsv(const CampaignResult& result);

/// JSON-lines: one object per combo with scenario, axes, config summary,
/// mean metrics, and the per-trial total_excl_beacons trajectory.
std::string CampaignJsonLines(const CampaignResult& result);

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_
